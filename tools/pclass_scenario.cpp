/// \file pclass_scenario.cpp
/// Scenario runner CLI: drives the dataplane Engine over the workload
/// catalog (ACL/FW/IPC-shaped sets, Zipf locality, cache-thrash,
/// trie-depth and update-storm traffic) and emits one machine-readable
/// JSON report. Every scenario is oracle-verified against
/// baseline::LinearSearch; any mismatch, worker error or snapshot
/// monotonicity violation makes the exit code nonzero, which is what CI
/// keys on.
///
///   pclass_scenario [--list] [--scenario NAME]... [--smoke]
///                   [--workers N] [--cache-depth N] [--seed N]
///                   [--scale F] [--out FILE]
///                   [--ip-alg mbt|bst|rvh]
///                   [--fault-plan SPEC]
///                   [--save-workloads DIR] [--load-workloads DIR]
///                   [--stats-interval-ms N] [--trace-out FILE]
///                   [--metrics-out FILE]
///
/// --smoke shrinks every workload (~6x) for fast CI runs. The report
/// goes to stdout unless --out names a file.
///
/// Telemetry: --stats-interval-ms N runs a background sampler per
/// engine and embeds its delta series as the report's `timeseries`
/// array; --trace-out writes every batch span as chrome://tracing JSON
/// (one process per scenario, one track per worker — load it at
/// chrome://tracing or ui.perfetto.dev); --metrics-out writes a
/// Prometheus text-exposition dump of the per-scenario end-of-run
/// counters.
///
/// Scenarios run one at a time, in catalog order (or the order of the
/// --scenario flags). --ip-alg selects the IP lookup backend every
/// scenario's device is built with (mbt/bst trie family, rvh
/// range-vector hash) — the per-family win/loss axis CI sweeps over
/// saved workloads.
///
/// --workers N runs every scenario's engine as N worker threads over N
/// RSS-style shards, each owning its classifier replica and flow cache;
/// the trace is steered per-flow across the full-ruleset replicas.
///
/// --fault-plan SPEC overrides the chaos scenario's built-in seeded
/// fault plan (grammar: throw:w=W@S, stall:w=W@S:ms=D, pubfail:u=K,
/// conndrop:r=K, comma-separated; see docs/ROBUSTNESS.md). A throw or
/// stall aimed at a worker the chaos engine does not run fails the
/// scenario. Other scenarios ignore it.
///
/// --save-workloads writes each scenario's synthesized ruleset/trace as
/// versioned PCR1/PCT1 binaries; --load-workloads replays them instead
/// of re-synthesizing, so two runs (e.g. two backends or two commits)
/// measure byte-identical workloads.
#include <array>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/build_info.hpp"
#include "common/parse.hpp"
#include "telemetry/export.hpp"
#include "workload/scenario.hpp"

using namespace pclass;

namespace {

int usage() {
  std::cerr << "usage: pclass_scenario [--version] [--list] "
               "[--scenario NAME]... "
               "[--smoke] [--workers N] [--cache-depth N] [--seed N] "
               "[--scale F] [--out FILE] "
               "[--ip-alg mbt|bst|rvh] "
               "[--fault-plan SPEC] "
               "[--save-workloads DIR] [--load-workloads DIR] "
               "[--stats-interval-ms N] [--trace-out FILE] "
               "[--metrics-out FILE]\n";
  return 2;
}

/// End-of-run counters of every scenario as Prometheus text exposition.
void write_metrics(std::ostream& os,
                   const std::vector<workload::ScenarioResult>& results) {
  telemetry::MetricsWriter m(os);
  using Label = telemetry::MetricsWriter::Label;
  telemetry::write_build_info(m);
  for (const auto& r : results) {
    const std::array<Label, 1> ls = {Label{"scenario", r.name}};
    const dataplane::WorkerReport& e = r.engine;
    telemetry::write_run_metrics(m, ls, e.counters, r.engine_counters, r.mpps,
                                 e.latency.percentile(50),
                                 e.latency.percentile(99));
    m.gauge("pclass_cache_hit_rate", "Flow-cache hit rate", ls,
            e.counters.cache_hit_rate());
    telemetry::write_counter_metrics(m, "pclass_publisher_", ls, r.publisher);
    m.counter("pclass_oracle_mismatches_total",
              "Oracle verification mismatches", ls,
              static_cast<double>(r.oracle_mismatches));
  }
}

}  // namespace

int main(int argc, char** argv) {
  workload::ScenarioOptions opts;
  std::vector<std::string> wanted;
  std::string out_path;
  std::string trace_path;
  std::string metrics_path;
  bool list_only = false;

  u64 n = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--version") {
      std::cout << common::version_line("pclass_scenario") << "\n";
      return 0;
    } else if (flag == "--list") {
      list_only = true;
    } else if (flag == "--smoke") {
      opts.scale = 0.15;
    } else if (flag == "--scenario" && i + 1 < argc) {
      wanted.emplace_back(argv[++i]);
    } else if (flag == "--workers" && i + 1 < argc) {
      if (!parse_count(argv[++i], n) || n == 0 || n > 256) return usage();
      opts.workers = static_cast<usize>(n);
    } else if (flag == "--cache-depth" && i + 1 < argc) {
      if (!parse_count(argv[++i], n) || n > (u64{1} << 24)) return usage();
      opts.flow_cache_depth = static_cast<u32>(n);
    } else if (flag == "--seed" && i + 1 < argc) {
      if (!parse_count(argv[++i], n)) return usage();
      opts.seed = n;
    } else if (flag == "--scale" && i + 1 < argc) {
      try {
        opts.scale = std::stod(argv[++i]);
      } catch (const std::exception&) {
        return usage();
      }
      if (opts.scale <= 0 || opts.scale > 100) return usage();
    } else if (flag == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (flag == "--ip-alg" && i + 1 < argc) {
      const std::string v = argv[++i];
      if (v == "mbt") opts.ip_algorithm = core::IpAlgorithm::kMbt;
      else if (v == "bst") opts.ip_algorithm = core::IpAlgorithm::kBst;
      else if (v == "rvh") opts.ip_algorithm = core::IpAlgorithm::kRvh;
      else return usage();
    } else if (flag == "--fault-plan" && i + 1 < argc) {
      opts.fault_plan = argv[++i];
    } else if (flag == "--save-workloads" && i + 1 < argc) {
      opts.save_workloads_dir = argv[++i];
    } else if (flag == "--load-workloads" && i + 1 < argc) {
      opts.load_workloads_dir = argv[++i];
    } else if (flag == "--stats-interval-ms" && i + 1 < argc) {
      if (!parse_count(argv[++i], n) || n > 3'600'000) return usage();
      opts.stats_interval_ms = n;
    } else if (flag == "--trace-out" && i + 1 < argc) {
      trace_path = argv[++i];
      opts.collect_trace = true;
    } else if (flag == "--metrics-out" && i + 1 < argc) {
      metrics_path = argv[++i];
    } else {
      return usage();
    }
  }

  if (list_only) {
    for (const auto& s : workload::ScenarioRunner::catalog()) {
      std::cout << s.name << "\t" << s.description << "\n";
    }
    return 0;
  }

  try {
    workload::ScenarioRunner runner(opts);
    const std::vector<workload::ScenarioResult> results =
        wanted.empty() ? runner.run_all() : runner.run_many(wanted);

    // Human-readable progress on stderr; the JSON report is the output.
    using telemetry::Counter;
    for (const auto& r : results) {
      const dataplane::WorkerReport& e = r.engine;
      std::cerr << (r.ok() ? "ok   " : "FAIL ") << r.name << ": "
                << e.counters[Counter::packets] << " pkts, " << r.rules
                << " rules, p50/p99 " << e.latency.percentile(50) << "/"
                << e.latency.percentile(99) << " cyc, cache "
                << static_cast<int>(e.counters.cache_hit_rate() * 100)
                << "%, oracle "
                << (r.oracle_checked - r.oracle_mismatches) << "/"
                << r.oracle_checked;
      if (r.updates_applied > 0) {
        std::cerr << ", " << r.updates_applied << " updates";
      }
      if (const auto vis = e.counters.update_visibility(); vis.samples > 0) {
        std::cerr << ", upd-vis " << static_cast<u64>(vis.mean_ns) / 1000
                  << "us mean";
      }
      if (const u64 drops = r.engine_counters
              [telemetry::EngineCounter::trace_events_dropped];
          drops > 0) {
        std::cerr << ", trace-drop " << drops;
      }
      for (const auto& we : r.worker_errors) {
        std::cerr << " [" << we << "]";
      }
      if (!r.error.empty() && r.worker_errors.empty()) {
        std::cerr << " [" << r.error << "]";
      }
      std::cerr << "\n";
    }

    if (!trace_path.empty()) {
      std::vector<telemetry::TraceProcess> procs;
      procs.reserve(results.size());
      for (const auto& r : results) {
        procs.push_back({r.name, r.trace_events});
      }
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
      write_metrics(os, results);
      std::cerr << "wrote " << metrics_path << "\n";
    }

    std::ostringstream report;
    workload::write_json_report(report, opts, results);
    if (out_path.empty()) {
      std::cout << report.str();
    } else {
      std::ofstream os(out_path);
      if (!os) {
        std::cerr << "error: cannot open " << out_path << "\n";
        return 1;
      }
      os << report.str();
      std::cerr << "wrote " << out_path << "\n";
    }

    if (!workload::all_ok(results)) {
      std::cerr << "FAIL: at least one scenario failed oracle/consistency "
                   "verification\n";
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
