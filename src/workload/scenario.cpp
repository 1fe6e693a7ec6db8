#include "workload/scenario.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <map>
#include <ostream>
#include <thread>

#include "baseline/linear_search.hpp"
#include "common/build_info.hpp"
#include "common/error.hpp"
#include "dataplane/engine.hpp"
#include "fault/fault.hpp"
#include "workload/binio.hpp"
#include "workload/json_writer.hpp"
#include "workload/ruleset_synth.hpp"
#include "workload/trace_synth.hpp"

namespace pclass::workload {

namespace {

using dataplane::Engine;
using dataplane::EngineConfig;
using dataplane::EngineReport;
using dataplane::RuleProgramPublisher;
using dataplane::TrafficPool;

usize scaled(usize base, double scale, usize floor_value) {
  return std::max<usize>(
      floor_value, static_cast<usize>(static_cast<double>(base) * scale));
}

/// A scenario's input artifacts (the storm schedule is re-derived from
/// the rules, so these two files pin the whole workload).
struct ScenarioWorkload {
  ruleset::RuleSet rules;
  net::Trace trace;
};

/// Resolve a scenario's workload: load the versioned PCR1/PCT1 files
/// when --load-workloads is set, synthesize otherwise, and save when
/// --save-workloads is set (loading + saving round-trips the bytes).
ScenarioWorkload obtain_workload(
    const ScenarioOptions& opts, const std::string& name,
    const std::function<ScenarioWorkload()>& synth) {
  ScenarioWorkload w =
      opts.load_workloads_dir.empty()
          ? synth()
          : ScenarioWorkload{
                binio::load_ruleset_file(opts.load_workloads_dir + "/" +
                                         name + ".rules.pcr1"),
                binio::load_trace_file(opts.load_workloads_dir + "/" + name +
                                       ".trace.pct1")};
  if (!opts.save_workloads_dir.empty()) {
    std::filesystem::create_directories(opts.save_workloads_dir);
    binio::save_ruleset_file(
        opts.save_workloads_dir + "/" + name + ".rules.pcr1", w.rules);
    binio::save_trace_file(
        opts.save_workloads_dir + "/" + name + ".trace.pct1", w.trace);
  }
  return w;
}

using dataplane::WorkerBudget;

/// Copy the engine-side measurement into the result (by value: the
/// telemetry series and trace events are moved out of the report).
void fill_engine_stats(ScenarioResult& r, EngineReport rep) {
  r.engine = dataplane::merge_reports(0, rep.workers);
  r.wall_seconds = rep.wall_seconds;
  r.mpps = rep.aggregate_mpps();
  r.trace_events_truncated = rep.trace_events_truncated;
  // Surface ALL worker deaths (healed incarnations included), each with
  // its worker index + restart count; then any remaining fatal error the
  // log does not already carry.
  std::vector<std::string> logged;
  for (const auto& d : rep.error_log) {
    r.worker_errors.push_back(
        "worker " + std::to_string(d.worker) + " [restarts=" +
        std::to_string(d.restarts) + (d.permanent ? ", permanent" : ", healed") +
        "]: " + d.message);
    logged.push_back(d.message);
  }
  for (const auto& w : rep.workers) {
    if (w.error.empty()) continue;
    if (std::find(logged.begin(), logged.end(), w.error) != logged.end()) {
      continue;
    }
    r.worker_errors.push_back("worker " + std::to_string(w.worker) + ": " +
                              w.error);
  }
  // Supervisor rollup + the conservation ledger (finite runs only; the
  // engine skips the ledger in loop mode).
  r.worker_restarts = rep.worker_restarts;
  r.stall_detections = rep.stall_detections;
  r.shards_reassigned = rep.shards_reassigned;
  r.workers_failed = rep.workers_failed;
  r.conservation_checked = rep.conservation_checked;
  r.offered_packets = rep.offered_packets;
  r.delivered_packets = rep.delivered_packets;
  r.shed_packets = rep.shed_packets;
  r.lost_packets = rep.lost_packets;
  r.conserved = rep.conserved();
  r.timeseries = std::move(rep.timeseries);
  r.trace_events = std::move(rep.trace_events);
  r.shard_reports = std::move(rep.shards);
  if (r.error.empty()) {
    r.error = rep.first_error();
  }
  if (r.error.empty() && !r.conserved) {
    r.error = "conservation violated: delivered " +
              std::to_string(r.delivered_packets) + " + shed " +
              std::to_string(r.shed_packets) + " + lost " +
              std::to_string(r.lost_packets) + " != offered " +
              std::to_string(r.offered_packets);
  }
}

/// Re-classify every trace header against the published snapshot and
/// compare with the linear-search ground truth over the same rules.
void verify_oracle(ScenarioResult& r, const RuleProgramPublisher& programs,
                   const net::Trace& trace) {
  const auto snap = programs.acquire();
  const auto installed = snap->classifier().installed_rules();
  // Reconstruct verbatim: the installed priorities are authoritative
  // (LinearSearch orders by them itself), so no back-fill may run.
  ruleset::RuleSet oracle_rules("oracle");
  for (const ruleset::Rule& rule : installed) {
    oracle_rules.add_verbatim(rule);
  }
  const baseline::LinearSearch oracle(oracle_rules);
  for (const auto& e : trace) {
    const auto res = snap->classifier().classify(e.header);
    const ruleset::Rule* want = oracle.classify(e.header, nullptr);
    const bool agree = want == nullptr
                           ? !res.match.has_value()
                           : res.match && res.match->rule == want->id;
    ++r.oracle_checked;
    if (!agree) ++r.oracle_mismatches;
  }
}

/// Device configuration sized for the scenario (exact lookup mode).
core::ClassifierConfig scenario_config(const ruleset::RuleSet& rules,
                                       usize extra_headroom,
                                       const ScenarioOptions& opts) {
  core::ClassifierConfig cfg =
      core::ClassifierConfig::for_scale(rules.size() + extra_headroom);
  cfg.combine_mode = core::CombineMode::kCrossProduct;  // exact lookups
  cfg.ip_algorithm = opts.ip_algorithm;
  return cfg;
}

/// Engine geometry for a scenario (loop/shards vary per call site).
EngineConfig engine_config(const ScenarioOptions& opts, WorkerBudget* budget,
                           bool loop, usize shards) {
  return {.workers = opts.workers,
          .batch_size = opts.batch_size,
          .flow_cache_depth = opts.flow_cache_depth,
          .loop = loop,
          .budget = budget,
          .stats_interval_ms = opts.stats_interval_ms,
          .collect_trace = opts.collect_trace,
          .shards = shards,
          .steer_symmetric = opts.steer_symmetric};
}

/// Drain the trace once through the engine and collect stats + oracle.
void run_finite(ScenarioResult& r, const ScenarioOptions& opts,
                WorkerBudget* budget, const ruleset::RuleSet& rules,
                const net::Trace& trace) {
  r.rules = rules.size();
  r.trace_packets = trace.size();
  TrafficPool pool =
      TrafficPool::from_trace(trace, /*materialize_packets=*/false);
  const EngineConfig ecfg =
      engine_config(opts, budget, /*loop=*/false, opts.shards);
  RuleProgramPublisher programs(scenario_config(rules, 0, opts));
  programs.install_ruleset(rules);
  Engine engine(ecfg, programs);
  EngineReport rep = engine.run(pool);
  fill_engine_stats(r, std::move(rep));
  verify_oracle(r, programs, trace);
}

// ---- scenario bodies ------------------------------------------------------

ScenarioResult run_family(const ScenarioOptions& opts, WorkerBudget* budget,
                          const std::string& name,
                          const std::string& family) {
  ScenarioResult r;
  const ScenarioWorkload w = obtain_workload(opts, name, [&] {
    const usize rules_n =
        scaled(family == "fw" ? 1500 : 2000, opts.scale, 96);
    const usize packets = scaled(60'000, opts.scale, 2048);
    RulesetProfile rp = RulesetProfile::by_family(family, rules_n, opts.seed);
    ruleset::RuleSet rules = synthesize(rp);
    TraceSynthesizer ts(rules,
                        TraceProfile::standard(packets, opts.seed ^ 0xABCD));
    net::Trace trace = ts.generate();
    return ScenarioWorkload{std::move(rules), std::move(trace)};
  });
  run_finite(r, opts, budget, w.rules, w.trace);
  return r;
}

ScenarioResult run_zipf_locality(const ScenarioOptions& opts,
                                 WorkerBudget* budget,
                                 const std::string& name) {
  ScenarioResult r;
  const ScenarioWorkload w = obtain_workload(opts, name, [&] {
    ruleset::RuleSet rules = synthesize(
        RulesetProfile::acl(scaled(1200, opts.scale, 96), opts.seed));
    TraceSynthesizer ts(rules,
                        TraceProfile::zipf_heavy(
                            scaled(80'000, opts.scale, 2048),
                            opts.seed ^ 0x21BF));
    net::Trace trace = ts.generate();
    return ScenarioWorkload{std::move(rules), std::move(trace)};
  });
  run_finite(r, opts, budget, w.rules, w.trace);
  return r;
}

ScenarioResult run_cache_thrash(const ScenarioOptions& opts,
                                WorkerBudget* budget,
                                const std::string& name) {
  ScenarioResult r;
  const ScenarioWorkload w = obtain_workload(opts, name, [&] {
    ruleset::RuleSet rules = synthesize(
        RulesetProfile::acl(scaled(1200, opts.scale, 96), opts.seed));
    // 8x more concurrently-active flows than cache lines: worker-local
    // repeat distance exceeds the cache even when N workers partition
    // the stream, so hits stay near zero.
    const usize flows =
        std::max<usize>(usize{opts.flow_cache_depth} * 8, 64);
    net::Trace trace = make_cache_thrash_trace(
        rules, scaled(60'000, opts.scale, 2048), flows, opts.seed ^ 0x7447);
    return ScenarioWorkload{std::move(rules), std::move(trace)};
  });
  run_finite(r, opts, budget, w.rules, w.trace);
  return r;
}

ScenarioResult run_trie_depth(const ScenarioOptions& opts,
                              WorkerBudget* budget,
                              const std::string& name) {
  ScenarioResult r;
  const ScenarioWorkload w = obtain_workload(opts, name, [&] {
    ruleset::RuleSet rules = synthesize(
        RulesetProfile::acl(scaled(1600, opts.scale, 96), opts.seed));
    net::Trace trace = make_trie_depth_trace(
        rules, scaled(60'000, opts.scale, 2048), opts.seed ^ 0xDEEF);
    return ScenarioWorkload{std::move(rules), std::move(trace)};
  });
  run_finite(r, opts, budget, w.rules, w.trace);
  return r;
}

ScenarioResult run_update_storm(const ScenarioOptions& opts,
                                WorkerBudget* budget,
                                const std::string& name) {
  ScenarioResult r;
  const ScenarioWorkload w = obtain_workload(opts, name, [&] {
    ruleset::RuleSet rules = synthesize(
        RulesetProfile::acl(scaled(1000, opts.scale, 96), opts.seed));
    TraceSynthesizer ts(rules,
                        TraceProfile::standard(
                            scaled(40'000, opts.scale, 2048),
                            opts.seed ^ 0xABCD));
    net::Trace trace = ts.generate();
    return ScenarioWorkload{std::move(rules), std::move(trace)};
  });
  const ruleset::RuleSet& rules = w.rules;
  const net::Trace& trace = w.trace;
  r.rules = rules.size();
  r.trace_packets = trace.size();

  // Even count: the storm ends on a delete, leaving exactly the base set
  // installed (which keeps the post-storm oracle comparison exact).
  usize updates = scaled(4000, opts.scale, 512);
  updates &= ~usize{1};
  // Churn ids live above every generated rule id but inside the Rule
  // Filter's 16-bit id field.
  const UpdateStorm storm =
      make_update_storm(rules, updates, /*first_id=*/60'000,
                        opts.seed ^ 0x5707);

  RuleProgramPublisher programs(scenario_config(rules, 512, opts));
  programs.install_ruleset(rules);
  const u64 version_before = programs.version();
  TrafficPool pool =
      TrafficPool::from_trace(trace, /*materialize_packets=*/false);
  Engine engine(engine_config(opts, budget, /*loop=*/true, opts.shards),
                programs);
  engine.start(pool);
  const auto t0 = std::chrono::steady_clock::now();
  for (const sdn::Message& msg : storm.schedule) {
    programs.apply(msg);
  }
  const double storm_secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  {
    EngineReport rep = engine.stop();
    fill_engine_stats(r, std::move(rep));
  }

  r.updates_applied = storm.schedule.size();
  r.updates_per_sec =
      storm_secs <= 0
          ? 0.0
          : static_cast<double>(storm.schedule.size()) / storm_secs;
  r.grace_spins = programs.stats().grace_spins;
  if (programs.version() != version_before + storm.schedule.size()) {
    r.error = "update-storm: published version did not advance by the "
              "schedule length";
  }
  verify_oracle(r, programs, trace);
  return r;
}

/// Multi-writer storm: N controller threads push paced add/delete churn
/// through the publisher's writer mutex while workers classify — the
/// writer-side contention the single-writer storm cannot produce. Every
/// publish rotates the workers onto the other replica hundreds of times
/// mid-trace; the oracle check below catches a verdict served from a
/// stale snapshot or flow cache.
ScenarioResult run_update_storm_multi(const ScenarioOptions& opts,
                                      WorkerBudget* budget,
                                      const std::string& name) {
  ScenarioResult r;
  const ScenarioWorkload w = obtain_workload(opts, name, [&] {
    ruleset::RuleSet rules = synthesize(
        RulesetProfile::acl(scaled(1000, opts.scale, 96), opts.seed));
    TraceSynthesizer ts(rules,
                        TraceProfile::standard(
                            scaled(40'000, opts.scale, 2048),
                            opts.seed ^ 0xABCD));
    net::Trace trace = ts.generate();
    return ScenarioWorkload{std::move(rules), std::move(trace)};
  });
  r.rules = w.rules.size();
  r.trace_packets = w.trace.size();

  constexpr usize kWriters = 4;
  // Even count per writer: each schedule ends on a delete, so the storm
  // leaves exactly the base set installed for the oracle comparison.
  usize per_writer = scaled(2000, opts.scale, 256);
  per_writer &= ~usize{1};
  // Disjoint churn id windows (1024 apart; each storm cycles 256 ids)
  // and disjoint 10.site.x.x source octets make the writers fully
  // independent — any interleaving through the writer mutex is legal.
  std::array<UpdateStorm, kWriters> storms;
  usize total_updates = 0;
  for (usize wr = 0; wr < kWriters; ++wr) {
    storms[wr] = make_update_storm(
        w.rules, per_writer, /*first_id=*/static_cast<u32>(58'000 + wr * 1024),
        opts.seed ^ (0x17E0 + wr * 0x9E37), /*site=*/static_cast<u32>(wr + 1));
    total_updates += storms[wr].schedule.size();
  }

  // Headroom: up to kWriters * 256 churn rules live at once.
  RuleProgramPublisher programs(scenario_config(w.rules, 1280, opts));
  programs.install_ruleset(w.rules);
  const u64 version_before = programs.version();
  TrafficPool pool =
      TrafficPool::from_trace(w.trace, /*materialize_packets=*/false);
  Engine engine(engine_config(opts, budget, /*loop=*/true, opts.shards),
                programs);
  engine.start(pool);

  std::array<std::string, kWriters> writer_errors;
  const auto t0 = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> writers;
    writers.reserve(kWriters);
    for (usize wr = 0; wr < kWriters; ++wr) {
      writers.emplace_back([&, wr] {
        try {
          usize k = 0;
          for (const sdn::Message& msg : storms[wr].schedule) {
            programs.apply(msg);
            // Pacing: yield between messages, sleep every 32nd — the
            // storm overlaps the whole classification run instead of
            // racing ahead of it, so the mutex sees sustained
            // multi-thread contention.
            if (++k % 32 == 0) {
              std::this_thread::sleep_for(std::chrono::microseconds(50));
            } else {
              std::this_thread::yield();
            }
          }
        } catch (const std::exception& e) {
          writer_errors[wr] = e.what();
        }
      });
    }
    for (auto& t : writers) t.join();
  }
  const double storm_secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  {
    EngineReport rep = engine.stop();
    fill_engine_stats(r, std::move(rep));
  }

  r.updates_applied = total_updates;
  r.updates_per_sec =
      storm_secs <= 0 ? 0.0
                      : static_cast<double>(total_updates) / storm_secs;
  r.grace_spins = programs.stats().grace_spins;
  for (const std::string& err : writer_errors) {
    if (!err.empty() && r.error.empty()) {
      r.error = "update-storm-multi writer: " + err;
    }
  }
  if (r.error.empty() &&
      programs.version() != version_before + total_updates) {
    r.error = "update-storm-multi: published version did not advance by "
              "the combined schedule length";
  }
  verify_oracle(r, programs, w.trace);
  return r;
}

/// Version -> LinearSearch oracle over exactly the rules installed at
/// that published version (the differential fuzzer's idiom). The single
/// scenario thread records after the install and every successful
/// apply; oracles build lazily since most versions see few verdicts.
class ChaosOracles {
 public:
  void record(const RuleProgramPublisher& pub) {
    const std::shared_ptr<const dataplane::RuleProgram> prog = pub.acquire();
    ruleset::RuleSet rs("v" + std::to_string(prog->version()));
    for (const ruleset::Rule& rule : prog->classifier().installed_rules()) {
      rs.add_verbatim(rule);
    }
    rules_.insert_or_assign(prog->version(), std::move(rs));
  }

  [[nodiscard]] const baseline::LinearSearch* at(u64 version) {
    const auto built = oracles_.find(version);
    if (built != oracles_.end()) return built->second.get();
    const auto it = rules_.find(version);
    if (it == rules_.end()) return nullptr;
    auto oracle = std::make_unique<baseline::LinearSearch>(it->second);
    return oracles_.emplace(version, std::move(oracle)).first->second.get();
  }

 private:
  std::map<u64, ruleset::RuleSet> rules_;
  std::map<u64, std::unique_ptr<baseline::LinearSearch>> oracles_;
};

/// The default seeded plan: worker 1 thrown past its retry budget on
/// three consecutive sweeps (-> 2 restarts, then permanent failure and
/// shard takeover), worker 2 stalled well past the watchdog deadline,
/// and one publisher apply failed mid-storm (retried by the scenario).
/// Sweep indices 1..3 so the plan fires even at the minimum trace floor
/// (two batches per shard).
constexpr const char* kDefaultChaosPlan =
    "throw:w=1@1,throw:w=1@2,throw:w=1@3,stall:w=2@1:ms=250,pubfail:u=2";

/// Chaos scenario: the fw-like workload in sharded replica mode under a
/// seeded FaultPlan with the supervisor on. Every delivered verdict is
/// checked against the LinearSearch oracle at its snapshot version, and
/// the run must conserve packets exactly: delivered + shed + lost ==
/// offered.
ScenarioResult run_chaos(const ScenarioOptions& opts, WorkerBudget* budget,
                         const std::string& name) {
  ScenarioResult r;
  const ScenarioWorkload w = obtain_workload(opts, name, [&] {
    const usize rules_n = scaled(1500, opts.scale, 96);
    const usize packets = scaled(60'000, opts.scale, 2048);
    RulesetProfile rp = RulesetProfile::by_family("fw", rules_n, opts.seed);
    ruleset::RuleSet rules = synthesize(rp);
    TraceSynthesizer ts(rules,
                        TraceProfile::standard(packets, opts.seed ^ 0xC4A0));
    net::Trace trace = ts.generate();
    return ScenarioWorkload{std::move(rules), std::move(trace)};
  });
  r.rules = w.rules.size();
  r.trace_packets = w.trace.size();

  fault::FaultPlan plan = fault::FaultPlan::parse(
      opts.fault_plan.empty() ? kDefaultChaosPlan : opts.fault_plan);
  r.fault_plan = plan.to_string();
  fault::FaultInjector injector(std::move(plan));

  // Takeover needs shards to reassign: force sharding, >= 3 workers
  // (the default plan targets workers 1 and 2; worker 0 survives).
  // Flow cache off — the per-version oracle demands exact verdicts.
  ScenarioOptions copts = opts;
  copts.workers = std::max<usize>(opts.workers, 3);
  copts.flow_cache_depth = 0;
  const usize shards =
      std::max<usize>(opts.shards == 0 ? 4 : opts.shards, copts.workers);
  EngineConfig ecfg = engine_config(copts, budget, /*loop=*/false, shards);
  ecfg.capture_verdicts = true;
  ecfg.fault_injector = &injector;
  ecfg.supervisor.enabled = true;
  ecfg.supervisor.watchdog_interval_ms = 5;
  ecfg.supervisor.stall_deadline_ms = 60;
  ecfg.supervisor.max_restarts = 2;
  ecfg.supervisor.restart_backoff_ms = 5;

  usize updates = scaled(400, opts.scale, 64);
  updates &= ~usize{1};
  const UpdateStorm storm = make_update_storm(
      w.rules, updates, /*first_id=*/60'000, opts.seed ^ 0x0BAD);

  RuleProgramPublisher programs(scenario_config(w.rules, 512, opts));
  programs.install_ruleset(w.rules);
  programs.set_fault_hook([&injector] { injector.on_publisher_apply(); });
  const u64 version_before = programs.version();
  ChaosOracles oracles;
  oracles.record(programs);

  TrafficPool pool =
      TrafficPool::from_trace(w.trace, /*materialize_packets=*/false);
  Engine engine(ecfg, programs);
  engine.start(pool);

  // Southbound churn while faults fire. An injected publish failure
  // leaves the publisher exactly as before the apply (all-or-nothing
  // restore), so the retry of the same message must succeed.
  u64 publish_failures_survived = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (const sdn::Message& msg : storm.schedule) {
    try {
      programs.apply(msg);
    } catch (const fault::InjectedFault&) {
      ++publish_failures_survived;
      programs.apply(msg);
    }
    oracles.record(programs);
    std::this_thread::yield();
  }
  const double storm_secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  EngineReport rep = engine.wait();

  // Per-version oracle over every delivered verdict: a verdict stamped
  // with an unpublished version is itself a mismatch (torn snapshot).
  for (const auto& stream : rep.captured) {
    for (const dataplane::CapturedVerdict& cv : stream) {
      ++r.oracle_checked;
      const baseline::LinearSearch* oracle = oracles.at(cv.version);
      if (oracle == nullptr) {
        ++r.oracle_mismatches;
        continue;
      }
      const ruleset::Rule* want = oracle->classify(cv.tuple, nullptr);
      const bool agree = want == nullptr
                             ? !cv.matched
                             : cv.matched && cv.rule == want->id &&
                                   cv.priority == want->priority;
      if (!agree) ++r.oracle_mismatches;
    }
  }
  fill_engine_stats(r, std::move(rep));

  r.updates_applied = storm.schedule.size();
  r.updates_per_sec =
      storm_secs <= 0
          ? 0.0
          : static_cast<double>(storm.schedule.size()) / storm_secs;
  r.grace_spins = programs.stats().grace_spins;
  const fault::FaultCounters& fc = injector.counters();
  r.injected_worker_throws = fc.worker_throws;
  r.injected_worker_stalls = fc.worker_stalls;
  r.injected_publish_failures = fc.publish_failures;
  r.injected_conn_drops = fc.conn_drops;

  if (r.error.empty() &&
      programs.version() != version_before + storm.schedule.size()) {
    r.error = "chaos: published version did not advance by the schedule "
              "length (failed applies must restore, retries must land)";
  }
  if (opts.fault_plan.empty()) {
    // The built-in plan's effects are deterministic; their absence means
    // the fault plane or the supervisor silently did nothing.
    if (r.error.empty() && r.worker_restarts < 1) {
      r.error = "chaos: expected >= 1 worker restart under the default plan";
    }
    if (r.error.empty() && r.shards_reassigned < 1) {
      r.error = "chaos: expected >= 1 shard reassignment under the default "
                "plan";
    }
    if (r.error.empty() && publish_failures_survived < 1) {
      r.error = "chaos: expected >= 1 injected publish failure to be "
                "survived under the default plan";
    }
  }
  return r;
}

}  // namespace

ScenarioRunner::ScenarioRunner(ScenarioOptions opts) : opts_(opts) {
  if (opts_.workers == 0) opts_.workers = 1;
  if (opts_.scale <= 0) {
    throw ConfigError("ScenarioRunner: scale must be > 0");
  }
  // The shared engine-worker budget: every scenario this runner starts
  // draws its worker threads from it, so concurrent scenarios can never
  // hold more than max_workers threads in total. Auto (0) = the
  // hardware thread count — parallelism without oversubscription.
  usize capacity = opts_.max_workers;
  if (capacity == 0) {
    // Auto must never cut a single scenario below its requested width
    // (that would make per-worker-partitioned metrics depend on the
    // host's core count even in sequential runs); it only caps how many
    // scenarios run at full width concurrently.
    const usize hw = std::thread::hardware_concurrency();
    capacity = std::max<usize>(hw, opts_.workers);
  }
  budget_ = std::make_unique<WorkerBudget>(std::max<usize>(capacity, 1));
}

ScenarioRunner::~ScenarioRunner() = default;

const std::vector<ScenarioSpec>& ScenarioRunner::catalog() {
  static const std::vector<ScenarioSpec> kCatalog = {
      {"acl-like",
       "ACL-shaped ruleset (host-heavy, exact dports), standard trace"},
      {"fw-like",
       "FW-shaped ruleset (wildcards, port ranges, nesting), standard "
       "trace"},
      {"ipc-like",
       "IPC-shaped ruleset (correlated endpoint pairs), standard trace"},
      {"zipf-locality",
       "heavy-head Zipf flows with bursts — the flow cache's best case"},
      {"cache-thrash",
       "8x more active flows than cache lines, maximal repeat distance"},
      {"trie-depth",
       "headers walking the longest installed prefixes (worst-case "
       "lookup depth)"},
      {"update-storm",
       "southbound add/delete churn through the RCU publisher under "
       "concurrent lookups"},
      {"update-storm-multi",
       "paced 4-writer churn contending on the publisher's writer mutex "
       "— snapshot swaps stress flow-cache invalidation mid-trace"},
      {"chaos",
       "fw-like workload in sharded replica mode under a seeded "
       "FaultPlan: worker kills, a stall and a failed publisher apply — "
       "supervised, oracle-clean and packet-conserving"},
  };
  return kCatalog;
}

ScenarioResult ScenarioRunner::run(const std::string& name) {
  const auto& specs = catalog();
  const auto it =
      std::find_if(specs.begin(), specs.end(),
                   [&](const ScenarioSpec& s) { return s.name == name; });
  if (it == specs.end()) {
    std::string known;
    for (const auto& s : specs) {
      known += (known.empty() ? "" : ", ") + s.name;
    }
    throw ConfigError("unknown scenario '" + name + "' (catalog: " + known +
                      ")");
  }

  ScenarioResult r;
  try {
    WorkerBudget* const b = budget_.get();
    if (name == "acl-like") r = run_family(opts_, b, name, "acl");
    else if (name == "fw-like") r = run_family(opts_, b, name, "fw");
    else if (name == "ipc-like") r = run_family(opts_, b, name, "ipc");
    else if (name == "zipf-locality") r = run_zipf_locality(opts_, b, name);
    else if (name == "cache-thrash") r = run_cache_thrash(opts_, b, name);
    else if (name == "trie-depth") r = run_trie_depth(opts_, b, name);
    else if (name == "update-storm") r = run_update_storm(opts_, b, name);
    else if (name == "update-storm-multi") {
      r = run_update_storm_multi(opts_, b, name);
    }
    else if (name == "chaos") r = run_chaos(opts_, b, name);
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  r.name = it->name;
  r.description = it->description;
  return r;
}

std::vector<ScenarioResult> ScenarioRunner::run_many(
    const std::vector<std::string>& names) {
  // Validate every name up front so an unknown one throws before any
  // scenario (or thread) starts.
  const auto& specs = catalog();
  for (const std::string& name : names) {
    if (std::none_of(specs.begin(), specs.end(),
                     [&](const ScenarioSpec& s) { return s.name == name; })) {
      std::string known;
      for (const auto& s : specs) {
        known += (known.empty() ? "" : ", ") + s.name;
      }
      throw ConfigError("unknown scenario '" + name + "' (catalog: " +
                        known + ")");
    }
  }
  usize pool = opts_.parallel;
  if (pool == 0) {
    // Auto-size from the worker budget: as many scenarios as can run at
    // their full worker width simultaneously. The budget is the actual
    // gate (engines block in acquire() when the pool over-claims), so
    // this is purely the no-queueing sweet spot — not a second cap.
    const usize per =
        std::max<usize>(1, std::min(opts_.workers, budget_->capacity()));
    pool = std::max<usize>(1, budget_->capacity() / per);
  }
  pool = std::min(pool, names.size());
  // A repeated name would race two writers on the same --save-workloads
  // files (and measure itself against itself); run such lists
  // sequentially — last write wins, as it always did.
  std::vector<std::string> sorted_names = names;
  std::sort(sorted_names.begin(), sorted_names.end());
  if (std::adjacent_find(sorted_names.begin(), sorted_names.end()) !=
      sorted_names.end()) {
    pool = 1;
  }

  std::vector<ScenarioResult> out(names.size());
  if (pool <= 1) {
    for (usize i = 0; i < names.size(); ++i) {
      out[i] = run(names[i]);
    }
    return out;
  }
  // Scenarios are independent (each builds its own publisher, engine
  // and workload; run() is thread-safe), so a claim cursor over the
  // name list is all the scheduling needed. Results land at their list
  // index, keeping the report deterministic regardless of completion
  // order.
  std::atomic<usize> next{0};
  std::vector<std::thread> threads;
  threads.reserve(pool);
  for (usize t = 0; t < pool; ++t) {
    threads.emplace_back([&] {
      while (true) {
        const usize i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= names.size()) break;
        out[i] = run(names[i]);
      }
    });
  }
  for (auto& t : threads) t.join();
  return out;
}

std::vector<ScenarioResult> ScenarioRunner::run_all() {
  std::vector<std::string> names;
  names.reserve(catalog().size());
  for (const ScenarioSpec& s : catalog()) {
    names.push_back(s.name);
  }
  return run_many(names);
}

bool all_ok(const std::vector<ScenarioResult>& results) {
  return std::all_of(results.begin(), results.end(),
                     [](const ScenarioResult& r) { return r.ok(); });
}

void write_json_report(std::ostream& os, const ScenarioOptions& opts,
                       const std::vector<ScenarioResult>& results) {
  JsonWriter j(os);
  j.begin_object();
  j.key("schema").value("pclass-scenarios-v5");
  const auto& build = common::build_info();
  j.key("meta").begin_object();
  j.key("build").begin_object();
  j.key("version").value(build.version);
  j.key("git_sha").value(build.git_sha);
  j.key("compiler").value(build.compiler);
  j.key("build_type").value(build.build_type);
  j.end_object();
  j.end_object();
  j.key("options").begin_object();
  j.key("workers").value(opts.workers);
  j.key("batch_size").value(opts.batch_size);
  j.key("flow_cache_depth").value(opts.flow_cache_depth);
  j.key("scale").value(opts.scale);
  j.key("seed").value(u64{opts.seed});
  j.key("ip_algorithm").value(std::string(to_string(opts.ip_algorithm)));
  j.key("parallel").value(opts.parallel);
  j.key("max_workers").value(opts.max_workers);
  j.key("stats_interval_ms").value(u64{opts.stats_interval_ms});
  j.key("shards").value(opts.shards);
  j.key("steer_symmetric").value(opts.steer_symmetric);
  j.key("steer_hash").value("mix64-5tuple");
  j.key("fault_plan").value(opts.fault_plan);
  j.end_object();
  j.key("counters");
  telemetry::write_counter_table(j);
  j.key("scenarios").begin_array();
  for (const ScenarioResult& r : results) {
    j.begin_object();
    j.key("name").value(r.name);
    j.key("description").value(r.description);
    j.key("ok").value(r.ok());
    j.key("rules").value(r.rules);
    j.key("trace_packets").value(r.trace_packets);
    const dataplane::WorkerReport& e = r.engine;
    j.key("packets_processed").value(e.counters[telemetry::Counter::packets]);
    j.key("wall_seconds").value(r.wall_seconds);
    j.key("throughput_mpps").value(r.mpps);
    j.key("lookup_cycles").begin_object();
    j.key("mean").value(e.latency.mean());
    j.key("p50").value(e.latency.percentile(50));
    j.key("p99").value(e.latency.percentile(99));
    j.key("max").value(e.latency.max());
    j.end_object();
    j.key("cache_hit_rate").value(e.counters.cache_hit_rate());
    telemetry::write_counters(j, e.counters);
    j.key("snapshot").begin_object();
    const u64 max_v = e.counters[telemetry::Counter::snapshot_version];
    j.key("min_version").value(e.min_version);
    j.key("max_version").value(max_v);
    j.key("lag").value(max_v >= e.min_version ? max_v - e.min_version : 0);
    j.key("monotonic").value(e.version_monotonic);
    j.end_object();
    j.key("updates").begin_object();
    j.key("applied").value(r.updates_applied);
    j.key("per_second").value(r.updates_per_sec);
    j.key("grace_spins").value(r.grace_spins);
    j.end_object();
    j.key("oracle").begin_object();
    j.key("checked").value(r.oracle_checked);
    j.key("mismatches").value(r.oracle_mismatches);
    j.end_object();
    j.key("fault").begin_object();
    j.key("plan").value(r.fault_plan);
    j.key("worker_restarts").value(r.worker_restarts);
    j.key("stall_detections").value(r.stall_detections);
    j.key("shards_reassigned").value(r.shards_reassigned);
    j.key("workers_failed").value(r.workers_failed);
    j.key("injected").begin_object();
    j.key("worker_throws").value(r.injected_worker_throws);
    j.key("worker_stalls").value(r.injected_worker_stalls);
    j.key("publish_failures").value(r.injected_publish_failures);
    j.key("conn_drops").value(r.injected_conn_drops);
    j.end_object();
    j.end_object();
    j.key("conservation").begin_object();
    j.key("checked").value(r.conservation_checked);
    j.key("offered").value(r.offered_packets);
    j.key("delivered").value(r.delivered_packets);
    j.key("shed").value(r.shed_packets);
    j.key("lost_in_flight").value(r.lost_packets);
    j.key("conserved").value(r.conserved);
    j.end_object();
    j.key("telemetry").begin_object();
    j.key("trace_events_dropped").value(e.trace_events_dropped);
    j.key("trace_events_truncated").value(r.trace_events_truncated);
    telemetry::write_update_visibility(j, e.counters);
    j.key("timeseries").begin_array();
    for (const telemetry::StatsSample& s : r.timeseries) {
      telemetry::write_stats_sample(j, s);
    }
    j.end_array();
    j.end_object();
    j.key("shards").begin_array();
    for (const dataplane::WorkerReport& s : r.shard_reports) {
      j.begin_object();
      j.key("shard").value(s.worker);
      telemetry::write_counters(j, s.counters);
      j.key("min_version").value(s.min_version);
      j.key("max_version")
          .value(s.counters[telemetry::Counter::snapshot_version]);
      j.key("p99_cycles").value(s.latency.percentile(99));
      j.end_object();
    }
    j.end_array();
    j.key("errors").begin_array();
    for (const std::string& e : r.worker_errors) {
      j.value(e);
    }
    j.end_array();
    j.key("error").value(r.error);
    j.end_object();
  }
  j.end_array();
  j.key("all_ok").value(all_ok(results));
  j.end_object();
  os << "\n";
}

}  // namespace pclass::workload
