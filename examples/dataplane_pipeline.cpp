/// \file dataplane_pipeline.cpp
/// The dataplane runtime end to end: an SDN controller programs a
/// RuleProgramPublisher (lock-free rule snapshots), a multi-worker
/// Engine streams batched traffic through the element chain
///
///   PacketSource -> Parser -> FlowCache -> Classifier -> ActionSink
///
/// and a live rule update lands mid-run without stalling the workers.
///
///   $ ./example_dataplane_pipeline
#include <iostream>
#include <thread>

#include "dataplane/engine.hpp"
#include "ruleset/generator.hpp"
#include "ruleset/trace_gen.hpp"
#include "sdn/controller.hpp"

using namespace pclass;

int main() {
  // 1. Controller side: a publisher instead of a bare switch. Every
  //    southbound message becomes an immutable snapshot swap.
  core::ClassifierConfig cfg = core::ClassifierConfig::for_scale(1000);
  cfg.combine_mode = core::CombineMode::kCrossProduct;  // exact mode
  dataplane::RuleProgramPublisher programs(cfg);
  sdn::Controller controller("ctrl-0");
  controller.attach(programs);

  auto rules = ruleset::make_classbench_like(ruleset::FilterType::kAcl, 1000);
  controller.install_ruleset(rules);
  std::cout << "installed " << programs.acquire()->rule_count()
            << " rules -> snapshot version " << programs.version() << "\n";

  // 2. Data plane: 20k trace headers, 4 workers, batches of 32, a
  //    1024-line exact-match flow cache per worker.
  ruleset::TraceGenerator tg(rules, {.headers = 20'000, .seed = 42});
  dataplane::TrafficPool pool =
      dataplane::TrafficPool::from_trace(tg.generate(), false);

  dataplane::Engine engine(
      {.workers = 4, .batch_size = 32, .flow_cache_depth = 1024, .loop = true},
      programs);
  engine.start(pool);

  // 3. Live update mid-run: drop all GRE traffic, highest priority.
  //    Workers keep classifying against the old snapshot until the new
  //    one is published — no locks, no stall.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ruleset::Rule drop_gre;
  drop_gre.id = RuleId{65'000};
  drop_gre.priority = 0;
  drop_gre.proto = ruleset::ProtoMatch::exact(47);
  controller.install(drop_gre, sdn::ActionSpec::drop());
  std::cout << "live update applied -> snapshot version "
            << programs.version() << "\n";
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // 4. Stop and read the per-worker measurements.
  const dataplane::EngineReport rep = engine.stop();
  std::cout << "\nworker  packets   matched   cache-hit%  p50cyc  p99cyc  "
               "versions\n";
  using telemetry::Counter;
  for (const auto& w : rep.workers) {
    std::cout << "  " << w.worker << "     " << w.counters[Counter::packets]
              << "   " << w.counters[Counter::matched] << "   "
              << static_cast<int>(w.counters.cache_hit_rate() * 100) << "%        "
              << w.latency.percentile(50) << "      "
              << w.latency.percentile(99) << "     [" << w.min_version
              << ", " << w.counters[Counter::snapshot_version] << "]"
              << (w.version_monotonic ? "" : "  NON-MONOTONIC!") << "\n";
  }
  std::cout << "\naggregate: " << rep.packets() << " packets in "
            << rep.wall_seconds << "s = " << rep.aggregate_mpps()
            << " Mpps across " << rep.workers.size() << " workers\n";
  std::cout << "controller sent " << controller.stats().flow_mods_sent
            << " flow-mods; publisher swapped "
            << programs.stats().publishes << " snapshots\n";
  return 0;
}
