/// \file pclass_classify.cpp
/// Offline classification driver: load a ClassBench filter file and a
/// trace, run them through the configurable classifier, and report the
/// measured performance — the workflow of the paper's evaluation, on
/// your own rule sets.
///
///   pclass_classify <rules_file> <trace_file> [--alg mbt|bst|rvh]
///                   [--mode first|cross] [--verify]
///                   [--workers N] [--batch B] [--cache DEPTH]
///                   [--stats-interval-ms N] [--trace-out FILE]
///                   [--metrics-out FILE]
///
/// The trace runs through the batched dataplane engine: N worker
/// threads (default 1) over N RSS-style shards steered by 5-tuple flow
/// hash, each with the full ruleset, its own flow cache (--cache, off by
/// default) and lock-free rule snapshots. --verify judges every
/// delivered verdict with the linear-search oracle
/// (dataplane::VersionedOracle).
/// The telemetry exporters: --stats-interval-ms runs the background
/// StatsSampler, --trace-out writes per-batch spans as chrome://tracing
/// JSON (one track per worker) and --metrics-out dumps end-of-run
/// counters in Prometheus text format.
#include <algorithm>
#include <array>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>

#include "common/build_info.hpp"
#include "common/parse.hpp"
#include "common/table.hpp"
#include "core/classifier.hpp"
#include "core/cycle_model.hpp"
#include "dataplane/engine.hpp"
#include "net/trace.hpp"
#include "ruleset/classbench.hpp"
#include "telemetry/export.hpp"

using namespace pclass;

namespace {

int usage() {
  std::cerr << "usage: pclass_classify <rules_file> <trace_file> "
               "[--alg mbt|bst|rvh] [--mode first|cross] [--verify]\n"
               "                       [--workers N] [--batch B] "
               "[--cache DEPTH]\n"
               "                       [--stats-interval-ms N] "
               "[--trace-out FILE] [--metrics-out FILE]\n"
               "(--workers defaults to 1, --cache to 0: no flow cache)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--version") {
    std::cout << common::version_line("pclass_classify") << "\n";
    return 0;
  }
  if (argc < 3) {
    return usage();
  }
  core::IpAlgorithm alg = core::IpAlgorithm::kMbt;
  core::CombineMode mode = core::CombineMode::kCrossProduct;
  bool verify = false;
  usize workers = 1;
  usize batch = net::kDefaultBatchCapacity;
  u32 cache_depth = 0;
  u64 stats_interval_ms = 0;
  std::string trace_path;
  std::string metrics_path;
  u64 n = 0;
  for (int i = 3; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--workers" && i + 1 < argc) {
      if (!parse_count(argv[++i], n) || n == 0) return usage();
      workers = static_cast<usize>(n);
    } else if (flag == "--batch" && i + 1 < argc) {
      if (!parse_count(argv[++i], n) || n == 0) return usage();
      batch = static_cast<usize>(n);
    } else if (flag == "--cache" && i + 1 < argc) {
      if (!parse_count(argv[++i], n)) return usage();
      if (n > std::numeric_limits<u32>::max()) {
        std::cerr << "error: --cache depth too large: " << n << "\n";
        return usage();
      }
      cache_depth = static_cast<u32>(n);
    } else if ((flag == "--alg" || flag == "--ip-alg") && i + 1 < argc) {
      const std::string v = argv[++i];
      if (v == "mbt") alg = core::IpAlgorithm::kMbt;
      else if (v == "bst") alg = core::IpAlgorithm::kBst;
      else if (v == "rvh") alg = core::IpAlgorithm::kRvh;
      else return usage();
    } else if (flag == "--mode" && i + 1 < argc) {
      const std::string v = argv[++i];
      if (v == "first") mode = core::CombineMode::kFirstLabel;
      else if (v == "cross") mode = core::CombineMode::kCrossProduct;
      else return usage();
    } else if (flag == "--stats-interval-ms" && i + 1 < argc) {
      if (!parse_count(argv[++i], n) || n > 3'600'000) return usage();
      stats_interval_ms = n;
    } else if (flag == "--trace-out" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (flag == "--metrics-out" && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (flag == "--verify") {
      verify = true;
    } else {
      return usage();
    }
  }
  try {
    std::ifstream rf(argv[1]);
    if (!rf) throw Error(std::string("cannot open ") + argv[1]);
    const ruleset::RuleSet rules = ruleset::classbench::read(rf, argv[1]);
    std::ifstream tf(argv[2]);
    if (!tf) throw Error(std::string("cannot open ") + argv[2]);
    const net::Trace trace = net::Trace::read(tf);
    std::cout << "loaded " << rules.size() << " rules, " << trace.size()
              << " headers\n";

    core::ClassifierConfig cfg =
        core::ClassifierConfig::for_scale(rules.size());
    cfg.ip_algorithm = alg;
    cfg.combine_mode = mode;

    dataplane::RuleProgramPublisher programs(cfg);
    const hw::UpdateStats load = programs.install_ruleset(rules);
    dataplane::TrafficPool pool =
        dataplane::TrafficPool::from_trace(trace, /*materialize=*/false);

    const dataplane::EngineConfig ecfg{
        .workers = workers,
        .batch_size = batch,
        .flow_cache_depth = cache_depth,
        .stats_interval_ms = stats_interval_ms,
        .collect_trace = !trace_path.empty(),
        .capture_verdicts = verify};
    dataplane::Engine engine(ecfg, programs);
    const dataplane::EngineReport rep = engine.run(pool);
    if (const std::string err = rep.first_error(); !err.empty()) {
      std::cerr << "error: dataplane worker failed: " << err << "\n";
      return 1;
    }

    using telemetry::Counter;
    TextTable t({"worker", "packets", "matched", "cache hit%", "p50 cyc",
                 "p99 cyc", "Mpps"});
    for (const auto& w : rep.workers) {
      t.add_row({std::to_string(w.worker),
                 std::to_string(w.counters[Counter::packets]),
                 std::to_string(w.counters[Counter::matched]),
                 TextTable::num(w.counters.cache_hit_rate() * 100.0, 1),
                 std::to_string(w.latency.percentile(50)),
                 std::to_string(w.latency.percentile(99)),
                 TextTable::num(w.mpps(), 3)});
    }
    t.print(std::cout);

    const dataplane::WorkerReport all =
        dataplane::merge_reports(0, rep.workers);
    const auto& lat = all.latency;
    const telemetry::CounterSet& totals = all.counters;
    // The device model's rows, from the published snapshot's classifier.
    const core::ConfigurableClassifier& clf = programs.acquire()->classifier();
    const core::ThroughputModel rate{cfg.fmax_mhz};
    const double ii =
        static_cast<double>(clf.lookup_pipeline().initiation_interval());
    TextTable a({"metric", "value"});
    a.add_row({"configuration", std::string(to_string(clf.ip_algorithm())) +
                                    " / " + to_string(cfg.combine_mode)});
    a.add_row({"engine", std::to_string(workers) + " workers x batch " +
                             std::to_string(batch)});
    a.add_row({"load cost", std::to_string(load.cycles) + " bus cycles (1 "
                            "coalesced snapshot)"});
    const auto add_rows = [&a](const auto& set) {
      for (usize i = 0; i < set.v.size(); ++i) {
        a.add_row({std::string(set.kDefs[i].name), std::to_string(set.v[i])});
      }
    };
    add_rows(totals);
    add_rows(rep.counters);
    a.add_row({"aggregate throughput",
               TextTable::num(rep.aggregate_mpps(), 3) + " Mpps (host)"});
    a.add_row({"lookup cycles p50/p99/max",
               std::to_string(lat.percentile(50)) + " / " +
                   std::to_string(lat.percentile(99)) + " / " +
                   std::to_string(lat.max())});
    a.add_row({"mean accesses/packet",
               TextTable::num(
                   static_cast<double>(totals[Counter::memory_accesses]) /
                   static_cast<double>(std::max<u64>(totals[Counter::packets],
                                                     1)))});
    a.add_row({"pipelined rate", TextTable::num(rate.mega_lookups_per_sec(ii)) +
                                     " Mlps = " +
                                     TextTable::num(rate.gbps(ii, 40)) +
                                     " Gbps @40B"});
    const double live_kb =
        static_cast<double>(clf.memory_report().total_used_bits) / 1e3;
    a.add_row({"live memory", TextTable::num(live_kb, 0) + " Kb"});
    a.add_row({"snapshot versions monotonic",
               all.version_monotonic ? "yes" : "NO"});
    if (stats_interval_ms > 0) {
      a.add_row({"timeseries samples", std::to_string(rep.timeseries.size()) +
                                           " (every " +
                                           std::to_string(stats_interval_ms) +
                                           " ms)"});
    }
    a.print(std::cout);

    if (!trace_path.empty()) {
      const std::array<telemetry::TraceProcess, 1> procs = {
          telemetry::TraceProcess{"pclass_classify", rep.trace_events}};
      std::ofstream os(trace_path);
      if (!os) {
        std::cerr << "error: cannot open " << trace_path << "\n";
        return 1;
      }
      telemetry::write_chrome_trace(os, procs);
      std::cerr << "wrote " << trace_path << "\n";
    }
    if (!metrics_path.empty()) {
      std::ofstream os(metrics_path);
      if (!os) {
        std::cerr << "error: cannot open " << metrics_path << "\n";
        return 1;
      }
      telemetry::MetricsWriter m(os);
      using Label = telemetry::MetricsWriter::Label;
      const std::array<Label, 1> ls = {Label{"tool", "pclass_classify"}};
      telemetry::write_run_metrics(m, ls, totals, rep.counters,
                                   rep.aggregate_mpps(), lat.percentile(50),
                                   lat.percentile(99));
      std::cerr << "wrote " << metrics_path << "\n";
    }

    if (verify) {
      // Every delivered verdict, flow-cache hits included, judged by the
      // oracle over the rules of the snapshot it was classified on.
      dataplane::VersionedOracle oracle;
      oracle.record(programs);
      for (const auto& stream : rep.captured) oracle.judge(stream);
      const dataplane::OracleCheck& v = oracle.result();
      std::cout << "verify: " << v.checked - v.mismatches << "/"
                << trace.size()
                << " verdicts agree with the linear-search oracle (rule, "
                   "priority and action)\n";
      if (!v.ok()) std::cout << "first mismatch: " << v.first_mismatch << "\n";
      if (cfg.combine_mode == core::CombineMode::kCrossProduct &&
          (!v.ok() || v.checked != trace.size())) {
        return 1;
      }
    }
    return all.version_monotonic ? 0 : 1;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    // Engine/thread/allocation failures (e.g. an absurd --workers value
    // exhausting std::thread) must exit cleanly, not std::terminate.
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
