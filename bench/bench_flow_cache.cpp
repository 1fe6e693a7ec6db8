/// \file bench_flow_cache.cpp
/// The paper's flow premise quantified (§I: "It is only necessary that
/// the first packet header of a flow matches the matching rule"): with
/// an exact-match flow cache in front of the classifier, steady-state
/// packets cost one hash + one read; only flow-opening packets pay the
/// 4-phase lookup. Sweeps cache size and traffic locality through the
/// dataplane engine's per-worker flow cache (one worker, batches of one
/// packet, so every packet sees the verdicts of all packets before it).
#include "bench_util.hpp"
#include "dataplane/engine.hpp"

using namespace pclass;
using namespace pclass::bench;

int main() {
  header("Flow cache — fast path for established flows",
         "acl1-1K rules; packets-per-flow controls temporal locality");

  const auto rules =
      ruleset::make_classbench_like(ruleset::FilterType::kAcl, 1000);

  TextTable t({"cache lines", "packets/flow", "hit rate",
               "mean cycles/pkt", "vs no-cache"});
  core::ClassifierConfig cfg = core::ClassifierConfig::for_scale(1000);
  cfg.combine_mode = core::CombineMode::kCrossProduct;
  dataplane::RuleProgramPublisher programs(cfg);
  programs.install_ruleset(rules);
  for (const u32 depth : {0u, 1024u, 8192u}) {
    for (const usize pkts_per_flow : {usize{1}, usize{8}, usize{64}}) {
      // Flow-structured traffic: each flow sends pkts_per_flow packets
      // back-to-back (flow tables see bursts; caches love them).
      workload::TraceProfile tp = workload::TraceProfile::standard(2000, 77);
      tp.miss_fraction = 0.05;
      const auto flows = workload::TraceSynthesizer(rules, tp).generate();
      dataplane::TrafficPool pool;
      for (const auto& e : flows) {
        for (usize k = 0; k < pkts_per_flow; ++k) pool.add(e.header);
      }
      dataplane::EngineConfig ecfg;
      ecfg.batch_size = 1;
      ecfg.flow_cache_depth = depth;
      dataplane::Engine engine(ecfg, programs);
      const dataplane::WorkerReport w = engine.run(pool).workers.at(0);
      const double mean = w.latency.mean();
      static double no_cache_baseline[3] = {0, 0, 0};
      const usize li = pkts_per_flow == 1 ? 0 : pkts_per_flow == 8 ? 1 : 2;
      if (depth == 0) no_cache_baseline[li] = mean;
      t.add_row({depth == 0 ? "off" : std::to_string(depth),
                 std::to_string(pkts_per_flow),
                 depth == 0 ? "-"
                            : TextTable::num(
                                  100.0 * w.counters.cache_hit_rate(), 1) +
                                  " %",
                 TextTable::num(mean, 1),
                 depth == 0
                     ? "1.00x"
                     : TextTable::num(no_cache_baseline[li] / mean, 2) +
                           "x"});
    }
  }
  t.print(std::cout);
  std::cout << "\nreading: at realistic flow lengths the cache collapses "
               "the mean cost toward its 2-cycle hit path even in the "
               "exact (cross-product) combination mode — classification "
               "cost is paid per flow, not per packet, which is the "
               "premise the paper's update-centric design rests on.\n";
  return 0;
}
