/// \file firewall_acl.cpp
/// A realistic firewall scenario: load a ClassBench-style ACL (the
/// paper's acl1 workload), push it into the hardware model, replay a
/// skewed traffic trace, and report the classification statistics a
/// network operator would look at — plus the device-level measurements
/// the paper's evaluation is built on.
///
///   $ ./firewall_acl [nominal_size=1000]
#include <iostream>
#include <map>

#include "common/table.hpp"
#include "core/classifier.hpp"
#include "core/cycle_model.hpp"
#include "dataplane/engine.hpp"
#include "ruleset/generator.hpp"
#include "ruleset/stats.hpp"
#include "ruleset/trace_gen.hpp"
#include "sdn/controller.hpp"

using namespace pclass;

int main(int argc, char** argv) {
  const usize nominal = argc > 1 ? std::stoul(argv[1]) : 1000;

  // The acl1-like filter set (Tables II/III calibration).
  const ruleset::RuleSet acl =
      ruleset::make_classbench_like(ruleset::FilterType::kAcl, nominal);
  const auto stats = ruleset::RuleSetStats::analyze(acl);
  std::cout << "filter set " << acl.name() << ": " << acl.size()
            << " rules\n  unique fields: src_ip=" << stats.unique_src_ip
            << " dst_ip=" << stats.unique_dst_ip
            << " src_port=" << stats.unique_src_port
            << " dst_port=" << stats.unique_dst_port
            << " proto=" << stats.unique_protocol << "\n"
            << "  label-method field storage saving: "
            << TextTable::num(100.0 * stats.unique_only_saving(), 1)
            << " %\n\n";

  // Switch + controller; exact combination mode for a firewall (a wrong
  // verdict is a security hole).
  core::ClassifierConfig cfg = core::ClassifierConfig::for_scale(acl.size());
  cfg.combine_mode = core::CombineMode::kCrossProduct;
  dataplane::RuleProgramPublisher fw(cfg);
  sdn::Controller ctl("controller0");
  ctl.attach(fw);
  ctl.install_ruleset(acl);
  const auto program = fw.acquire();
  const core::ConfigurableClassifier& clf = program->classifier();
  std::cout << "installed " << program->rule_count() << " flows in "
            << ctl.stats().update_cycles_total << " update-bus cycles ("
            << TextTable::num(static_cast<double>(
                                  ctl.stats().update_cycles_total) /
                                  static_cast<double>(acl.size()),
                              1)
            << " cycles/rule bulk)\n\n";

  // Replay a skewed trace (heavy hitters first, 10% scan noise)
  // through one dataplane worker, recording every verdict.
  ruleset::TraceGenerator tg(acl, {.headers = 20000,
                                   .rule_skew = 1.0,
                                   .random_fraction = 0.10,
                                   .seed = 7});
  const net::Trace trace = tg.generate();
  dataplane::TrafficPool pool = dataplane::TrafficPool::from_trace(
      trace, /*materialize_packets=*/false);
  dataplane::EngineConfig one_worker;
  one_worker.capture_verdicts = true;
  dataplane::Engine engine(one_worker, fw);
  const dataplane::EngineReport rep = engine.run(pool);
  const dataplane::WorkerReport& w = rep.workers.at(0);

  using telemetry::Counter;
  std::cout << "traffic:   " << w.counters[Counter::packets] << " packets, "
            << w.counters[Counter::matched] << " matched, "
            << w.counters[Counter::dropped] << " dropped (miss or deny)\n";
  std::cout << "lookup:    " << TextTable::num(w.latency.mean(), 2)
            << " cycles/packet mean, " << w.latency.max() << " worst\n";

  // Top-3 hottest flows, from the captured verdicts.
  std::map<RuleId, u64> hits;
  for (const dataplane::CapturedVerdict& v : rep.captured.at(0)) {
    if (v.match) ++hits[v.match->rule];
  }
  struct Hot {
    RuleId id;
    u64 packets;
  };
  std::vector<Hot> hot;
  for (const auto& r : acl) {
    if (const auto it = hits.find(r.id); it != hits.end()) {
      hot.push_back({r.id, it->second});
    }
  }
  std::sort(hot.begin(), hot.end(),
            [](const Hot& a, const Hot& b) { return a.packets > b.packets; });
  std::cout << "hot flows: ";
  for (usize i = 0; i < std::min<usize>(3, hot.size()); ++i) {
    std::cout << "rule" << hot[i].id.value << "=" << hot[i].packets << "pkt ";
  }
  std::cout << "\n\n";

  // Device-level view (what the paper's Tables V/VI report).
  const auto mem = clf.memory_report();
  std::cout << "device:    " << mem.total_used_bits / 1024 << " Kbit live / "
            << mem.total_capacity_bits / 1024 << " Kbit allocated, "
            << mem.register_bits << " register bits\n";
  const core::ThroughputModel rate{cfg.fmax_mhz};
  const double cpp =
      clf.lookup_pipeline().run(1'000'000).cycles_per_packet;
  std::cout << "line rate: " << TextTable::num(rate.gbps(cpp, 40), 2)
            << " Gbps @40B (" << to_string(clf.ip_algorithm())
            << " configuration)\n";

  // Sanity: the device agrees with a linear-search oracle.
  const dataplane::OracleCheck check =
      dataplane::check_against_oracle(clf, trace);
  std::cout << "verify:    " << check.checked - check.mismatches << "/"
            << check.checked
            << " headers agree with the linear-search oracle\n";
  return check.mismatches == 0 ? 0 : 1;
}
