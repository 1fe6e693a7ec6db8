/// \file bench_dataplane.cpp
/// The dataplane runtime's two headline claims:
///
///   1. Scaling curve — aggregate lookup throughput (host Mpps) of the
///      batched engine at 1/2/4/8 workers over a ClassBench-style
///      ruleset, with per-worker p50/p99 lookup-cycle latency. Speedup
///      is hardware-bound: showing 2x at 4 workers needs >= 4 cores.
///
///   2. Update storm — 10k controller updates stream through the
///      RuleProgramPublisher while 4 workers classify continuously.
///      The bench fails (nonzero exit) on any correctness violation:
///      non-monotonic snapshot versions, a torn verdict, or a stalled
///      engine (deadlock).
///
/// --telemetry-gate runs the observability overhead gate instead: the
/// engine on a pinned single-worker config (flow cache off, so every
/// packet takes the full lookup), telemetry fully off vs live counters
/// + trace ring + background sampler on, interleaved best-of-N on a
/// fw-like and a Zipf-flow shape. Exits nonzero when the on-leg costs
/// more than 3% Mpps — the "near-zero-cost" contract CI enforces.
///
/// --supervisor-gate is the same A/B harness pointed at the robustness
/// plane: supervisor off vs supervisor on (watchdog thread, restart
/// bookkeeping) with an armed empty-plan FaultInjector — the
/// drained-plan fast path every supervised production run pays.
/// Same shapes, same interleaved best-of-N, same 3% Mpps budget.
///
/// Usage: bench_dataplane [--duration-ms N] [--updates N]
///                        [--telemetry-gate] [--supervisor-gate]
#include <algorithm>
#include <iostream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/parse.hpp"
#include "dataplane/engine.hpp"
#include "fault/fault.hpp"
#include "workload/trace_synth.hpp"

using namespace pclass;
using namespace pclass::bench;

namespace {

struct ScalePoint {
  usize workers = 0;
  double mpps = 0;
  double speedup = 1.0;
  u64 p50 = 0;
  u64 p99 = 0;
  double hit_rate = 0;
};

ScalePoint run_point(const dataplane::RuleProgramPublisher& programs,
                     dataplane::TrafficPool& pool, usize workers,
                     u32 cache_depth, int duration_ms) {
  pool.reset();
  dataplane::Engine engine(
      {.workers = workers,
       .batch_size = net::kDefaultBatchCapacity,
       .flow_cache_depth = cache_depth,
       .loop = true},
      programs);
  engine.start(pool);
  std::this_thread::sleep_for(std::chrono::milliseconds(duration_ms));
  const dataplane::EngineReport rep = engine.stop();

  ScalePoint p;
  p.workers = workers;
  p.mpps = rep.aggregate_mpps();
  const dataplane::WorkerReport all = dataplane::merge_reports(0, rep.workers);
  p.p50 = all.latency.percentile(50);
  p.p99 = all.latency.percentile(99);
  p.hit_rate = all.counters.cache_hit_rate();
  return p;
}

struct Shape {
  const char* name;
  Workload w;
};

/// One timed engine pass of an overhead gate: single pinned worker, no
/// flow cache (every packet takes the full 4-phase lookup). The
/// telemetry gate's "on" leg turns on telemetry (rings written per
/// batch *and* the background sampler reading them); the supervisor
/// gate's turns on the supervisor with an armed empty-plan
/// FaultInjector, telemetry off in both of its legs so the delta
/// isolates the robustness plane.
double gate_leg_mpps(const dataplane::RuleProgramPublisher& programs,
                     const net::Trace& trace, bool telemetry,
                     bool supervised) {
  dataplane::TrafficPool pool =
      dataplane::TrafficPool::from_trace(trace, /*materialize=*/false);
  fault::FaultInjector injector{fault::FaultPlan{}};
  dataplane::EngineConfig cfg;
  cfg.workers = 1;
  cfg.flow_cache_depth = 0;
  cfg.telemetry = telemetry;
  cfg.stats_interval_ms = telemetry ? u64{10} : u64{0};
  if (supervised) {
    cfg.fault_injector = &injector;
    cfg.supervisor.enabled = true;  // defaults: the shipping knobs
  }
  dataplane::Engine engine(cfg, programs);
  return engine.run(pool).aggregate_mpps();
}

/// An overhead gate (see the file header): off vs on legs per shape,
/// interleaved best-of-\p reps — alternating passes share slow-host
/// noise between the legs instead of letting it land on one of them.
/// Exits nonzero when on costs more than \p max_overhead of off's Mpps.
int run_overhead_gate(const std::vector<Shape>& shapes, bool supervisor,
                      usize reps, double max_overhead) {
  const auto leg = [supervisor](const dataplane::RuleProgramPublisher& p,
                                const net::Trace& trace, bool on) {
    return gate_leg_mpps(p, trace, !supervisor && on, supervisor && on);
  };
  bool ok = true;
  TextTable t({"shape", "off Mpps", "on Mpps", "overhead", "budget"});
  for (const Shape& shape : shapes) {
    core::ClassifierConfig cfg =
        core::ClassifierConfig::for_scale(shape.w.rules.size());
    cfg.combine_mode = core::CombineMode::kCrossProduct;
    dataplane::RuleProgramPublisher programs(cfg);
    programs.install_ruleset(shape.w.rules);

    // Warmup (page in the trace, fault the structures), then measure.
    (void)leg(programs, shape.w.trace, false);
    (void)leg(programs, shape.w.trace, true);
    double best_off = 0;
    double best_on = 0;
    for (usize r = 0; r < reps; ++r) {
      best_off = std::max(best_off, leg(programs, shape.w.trace, false));
      best_on = std::max(best_on, leg(programs, shape.w.trace, true));
    }
    const double overhead =
        best_off <= 0 ? 0.0 : (best_off - best_on) / best_off;
    if (overhead > max_overhead) ok = false;
    t.add_row({shape.name, TextTable::num(best_off, 3),
               TextTable::num(best_on, 3),
               TextTable::num(overhead * 100, 2) + "%",
               TextTable::num(max_overhead * 100, 0) + "%"});
  }
  const std::string what = supervisor ? "Supervisor" : "Telemetry";
  header(what + " overhead gate",
         std::string("1 worker, flow cache off") +
             (supervisor ? ", empty fault plan" : "") + ", best of " +
             std::to_string(reps) + " interleaved reps per leg.");
  t.print(std::cout);
  if (!ok) {
    std::cerr << "FAIL: " << (supervisor ? "supervisor" : "telemetry")
              << " overhead exceeds the " << max_overhead * 100
              << "% Mpps budget\n";
    return 1;
  }
  std::cout << "OK: "
            << (supervisor ? "supervisor (heartbeats + watchdog + armed "
                             "empty-plan injector)"
                           : "telemetry (counters + ring + sampler)")
            << " within the " << max_overhead * 100 << "% Mpps budget\n";
  return 0;
}

/// The gates' shapes. Gate legs are whole-engine runs, so they need
/// enough packets for the wall clock to dominate thread start/join
/// noise; a cache-thrash shape is left out because its engineered
/// anti-locality makes its single-run variance swamp a 3% budget.
std::vector<Shape> gate_shapes() {
  constexpr usize kPackets = 200'000;
  std::vector<Shape> shapes;
  shapes.push_back(
      {"fw-like",
       make_profile_workload(
           workload::RulesetProfile::fw(1500, 2026),
           workload::TraceProfile::standard(kPackets, 2026 ^ 0xABCD))});
  shapes.push_back(
      {"zipf-flows",
       make_profile_workload(
           workload::RulesetProfile::acl(1200, 2026),
           workload::TraceProfile::zipf_heavy(kPackets, 2026 ^ 0x21BF))});
  return shapes;
}

}  // namespace

int main(int argc, char** argv) {
  int duration_ms = 400;
  u32 storm_updates = 10'000;
  bool telemetry_gate = false;
  bool supervisor_gate = false;
  const auto usage = [] {
    std::cerr << "usage: bench_dataplane [--duration-ms N] [--updates N] "
                 "[--telemetry-gate] [--supervisor-gate]\n";
    return 2;
  };
  u64 n = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--duration-ms" && i + 1 < argc) {
      if (!parse_count(argv[++i], n) || n > 3'600'000) return usage();
      duration_ms = static_cast<int>(n);
    } else if (flag == "--updates" && i + 1 < argc) {
      if (!parse_count(argv[++i], n) ||
          n > std::numeric_limits<u32>::max()) {
        return usage();
      }
      storm_updates = static_cast<u32>(n);
    } else if (flag == "--telemetry-gate") {
      telemetry_gate = true;
    } else if (flag == "--supervisor-gate") {
      supervisor_gate = true;
    } else {
      return usage();
    }
  }
  if (telemetry_gate || supervisor_gate) {
    const std::vector<Shape> shapes = gate_shapes();
    if (telemetry_gate) {
      const int rc = run_overhead_gate(shapes, /*supervisor=*/false,
                                       /*reps=*/7, /*max_overhead=*/0.03);
      if (rc != 0 || !supervisor_gate) return rc;
    }
    return run_overhead_gate(shapes, /*supervisor=*/true, /*reps=*/7,
                             /*max_overhead=*/0.03);
  }

  header("Dataplane engine — multi-worker scaling",
         "Batched element pipeline over one shared rule program; "
         "host has " +
             std::to_string(std::thread::hardware_concurrency()) +
             " hardware threads.");

  // Structural ACL profile + flow-structured trace from the workload
  // subsystem (overlap control, correlated pairs, Zipf + bursts).
  const Workload w = make_profile_workload(
      workload::RulesetProfile::acl(4000),
      workload::TraceProfile::standard(20'000, 2014 ^ 0xABCD));
  core::ClassifierConfig cfg = core::ClassifierConfig::for_scale(
      w.rules.size() + 256 /* storm headroom */);
  cfg.combine_mode = core::CombineMode::kCrossProduct;  // exact lookups
  dataplane::RuleProgramPublisher programs(cfg);
  programs.install_ruleset(w.rules);
  dataplane::TrafficPool pool =
      dataplane::TrafficPool::from_trace(w.trace, /*materialize=*/false);

  TextTable scale({"workers", "Mpps", "speedup", "p50 cyc", "p99 cyc",
                   "cache hit%"});
  double base_mpps = 0;
  double speedup_at_4 = 0;
  for (const usize workers : {usize{1}, usize{2}, usize{4}, usize{8}}) {
    const ScalePoint p =
        run_point(programs, pool, workers, /*cache_depth=*/4096,
                  duration_ms);
    const double speedup = base_mpps == 0 ? 1.0 : p.mpps / base_mpps;
    if (workers == 1) base_mpps = p.mpps;
    if (workers == 4) speedup_at_4 = speedup;
    scale.add_row({std::to_string(workers), TextTable::num(p.mpps, 3),
                   TextTable::num(speedup, 2) + "x",
                   std::to_string(p.p50), std::to_string(p.p99),
                   TextTable::num(p.hit_rate * 100.0, 1)});
  }
  scale.print(std::cout);
  std::cout << "speedup at 4 workers: " << TextTable::num(speedup_at_4, 2)
            << "x (target >= 2x; requires >= 4 free cores)\n";

  header("Update storm — lookups under concurrent rule churn",
         std::to_string(storm_updates) +
             " add/remove updates stream through the publisher while 4 "
             "workers classify.");

  pool.reset();
  dataplane::Engine engine({.workers = 4,
                            .batch_size = net::kDefaultBatchCapacity,
                            .flow_cache_depth = 4096,
                            .loop = true},
                           programs);
  const u64 version_before = programs.version();
  engine.start(pool);

  const workload::UpdateStorm storm_sched = workload::make_update_storm(
      w.rules, storm_updates & ~u32{1}, /*first_id=*/60'000, 2014);
  const auto t0 = std::chrono::steady_clock::now();
  hw::UpdateStats device_cost;
  u64 applied = 0;
  for (const sdn::Message& msg : storm_sched.schedule) {
    device_cost += programs.apply(msg);
    ++applied;
  }
  const double storm_secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const dataplane::EngineReport storm = engine.stop();

  const bool monotonic =
      dataplane::merge_reports(0, storm.workers).version_monotonic;
  const bool progressed =
      storm.packets() > 0 && storm.first_error().empty();
  const bool versions_ok =
      programs.version() == version_before + applied;

  TextTable st({"metric", "value"});
  st.add_row({"updates applied", std::to_string(applied)});
  st.add_row({"update rate",
              TextTable::num(static_cast<double>(applied) / storm_secs / 1e3, 1) +
                  " K updates/s"});
  st.add_row({"device update cost",
              std::to_string(device_cost.cycles) + " bus cycles"});
  st.add_row({"grace-period yields",
              std::to_string(programs.stats().grace_spins)});
  st.add_row({"lookups during storm", std::to_string(storm.packets())});
  st.add_row({"storm throughput",
              TextTable::num(storm.aggregate_mpps(), 3) + " Mpps"});
  st.add_row({"versions monotonic", monotonic ? "yes" : "NO"});
  st.add_row({"engine progressed", progressed ? "yes" : "NO (deadlock?)"});
  st.add_row({"final version == expected", versions_ok ? "yes" : "NO"});
  st.print(std::cout);

  if (!monotonic || !progressed || !versions_ok) {
    std::cerr << "FAIL: snapshot consistency violated under update storm\n";
    return 1;
  }
  std::cout << "OK: lookups sustained across " << applied
            << " concurrent updates with monotonic snapshots\n";
  return 0;
}
