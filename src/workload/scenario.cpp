#include "workload/scenario.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <filesystem>
#include <map>
#include <ostream>
#include <thread>

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

using WorkloadSynth = std::function<ScenarioWorkload(const ScenarioOptions&)>;

/// Resolve a scenario's workload: load the versioned PCR1/PCT1 files
/// when --load-workloads is set, synthesize otherwise, and save when
/// --save-workloads is set (loading + saving round-trips the bytes).
ScenarioWorkload obtain_workload(const ScenarioOptions& opts,
                                 const std::string& name,
                                 const WorkloadSynth& synth) {
  ScenarioWorkload w =
      opts.load_workloads_dir.empty()
          ? synth(opts)
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

// ---- workloads ------------------------------------------------------------

/// Rules from \p rp and a standard-profile trace of \p packets over them.
ScenarioWorkload with_standard_trace(const RulesetProfile& rp, usize packets,
                                     u64 trace_seed) {
  ruleset::RuleSet rules = synthesize(rp);
  TraceSynthesizer ts(rules, TraceProfile::standard(packets, trace_seed));
  net::Trace trace = ts.generate();
  return ScenarioWorkload{std::move(rules), std::move(trace)};
}

ScenarioWorkload family_workload(const ScenarioOptions& opts,
                                 const std::string& family, u64 trace_salt) {
  const usize rules_n = scaled(family == "fw" ? 1500 : 2000, opts.scale, 96);
  return with_standard_trace(
      RulesetProfile::by_family(family, rules_n, opts.seed),
      scaled(60'000, opts.scale, 2048), opts.seed ^ trace_salt);
}

ScenarioWorkload zipf_locality_workload(const ScenarioOptions& opts) {
  ruleset::RuleSet rules = synthesize(
      RulesetProfile::acl(scaled(1200, opts.scale, 96), opts.seed));
  TraceSynthesizer ts(rules,
                      TraceProfile::zipf_heavy(scaled(80'000, opts.scale, 2048),
                                               opts.seed ^ 0x21BF));
  net::Trace trace = ts.generate();
  return ScenarioWorkload{std::move(rules), std::move(trace)};
}

ScenarioWorkload cache_thrash_workload(const ScenarioOptions& opts) {
  ruleset::RuleSet rules = synthesize(
      RulesetProfile::acl(scaled(1200, opts.scale, 96), opts.seed));
  // 8x more concurrently-active flows than cache lines: worker-local
  // repeat distance exceeds the cache even when N workers partition
  // the stream, so hits stay near zero.
  const usize flows = std::max<usize>(usize{opts.flow_cache_depth} * 8, 64);
  net::Trace trace = make_cache_thrash_trace(
      rules, scaled(60'000, opts.scale, 2048), flows, opts.seed ^ 0x7447);
  return ScenarioWorkload{std::move(rules), std::move(trace)};
}

ScenarioWorkload trie_depth_workload(const ScenarioOptions& opts) {
  ruleset::RuleSet rules = synthesize(
      RulesetProfile::acl(scaled(1600, opts.scale, 96), opts.seed));
  net::Trace trace = make_trie_depth_trace(
      rules, scaled(60'000, opts.scale, 2048), opts.seed ^ 0xDEEF);
  return ScenarioWorkload{std::move(rules), std::move(trace)};
}

/// Both storm scenarios churn over the same base workload.
ScenarioWorkload storm_workload(const ScenarioOptions& opts) {
  return with_standard_trace(
      RulesetProfile::acl(scaled(1000, opts.scale, 96), opts.seed),
      scaled(40'000, opts.scale, 2048), opts.seed ^ 0xABCD);
}

// ---- measurement ----------------------------------------------------------

/// Copy the engine-side measurement and the publisher rows into the
/// result (the telemetry series and trace events move out of \p rep).
void fill_engine_stats(ScenarioResult& r, EngineReport rep,
                       const RuleProgramPublisher& programs) {
  programs.fill_counters(r.publisher);
  r.engine = dataplane::merge_reports(0, rep.workers);
  r.wall_seconds = rep.wall_seconds;
  r.mpps = rep.aggregate_mpps();
  r.engine_counters = rep.counters;
  r.conservation_checked = rep.conservation_checked;
  r.conserved = rep.conserved();
  // Surface ALL worker deaths (healed incarnations included; a fatal
  // worker error is always the log's last entry for that worker).
  for (const auto& d : rep.error_log) r.worker_errors.push_back(d.line());
  r.timeseries = std::move(rep.timeseries);
  r.trace_events = std::move(rep.trace_events);
  r.shard_reports = std::move(rep.shards);
  if (r.error.empty()) {
    r.error = rep.first_error();
  }
  if (r.error.empty() && !r.conserved) {
    r.error = "conservation violated: delivered + shed + lost != offered "
              "(see the engine rows)";
  }
}

/// The update schedule's length and rate into \p r, and an error unless
/// the published version is the install's one update per rule plus
/// exactly that many (a failed apply must restore, its retry land).
/// Reads the publisher rows, so it runs after fill_engine_stats.
void fill_schedule(ScenarioResult& r, u64 updates, double secs) {
  r.updates_applied = updates;
  r.updates_per_sec = secs <= 0 ? 0.0 : static_cast<double>(updates) / secs;
  if (r.error.empty() &&
      r.publisher[telemetry::PublisherCounter::version] != r.rules + updates) {
    r.error = "published version did not advance by the schedule length";
  }
}

/// The oracle's tally into \p r; its first disagreement, if any,
/// becomes the error.
void note_oracle(ScenarioResult& r, const dataplane::OracleCheck& c) {
  r.oracle_checked = c.checked;
  r.oracle_mismatches = c.mismatches;
  if (!c.ok() && r.error.empty()) r.error = "oracle: " + c.first_mismatch;
}

/// Re-classify every trace header against the published snapshot and
/// judge it against the linear-search ground truth over the same rules.
void verify_oracle(ScenarioResult& r, const RuleProgramPublisher& programs,
                   const net::Trace& trace) {
  note_oracle(r, dataplane::check_against_oracle(
                    programs.acquire()->classifier(), trace));
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

/// Engine geometry for a scenario (loop varies per call site).
EngineConfig engine_config(const ScenarioOptions& opts, bool loop) {
  EngineConfig cfg;
  cfg.workers = opts.workers;
  cfg.batch_size = opts.batch_size;
  cfg.flow_cache_depth = opts.flow_cache_depth;
  cfg.loop = loop;
  cfg.stats_interval_ms = opts.stats_interval_ms;
  cfg.collect_trace = opts.collect_trace;
  return cfg;
}

// ---- scenario bodies ------------------------------------------------------

/// A body that drains its workload once through the engine, then checks
/// every header against the oracle.
ScenarioBody finite(WorkloadSynth synth) {
  return [synth = std::move(synth)](const ScenarioOptions& opts,
                                    const std::string& name) {
    const ScenarioWorkload w = obtain_workload(opts, name, synth);
    ScenarioResult r;
    r.rules = w.rules.size();
    r.trace_packets = w.trace.size();
    TrafficPool pool =
        TrafficPool::from_trace(w.trace, /*materialize_packets=*/false);
    RuleProgramPublisher programs(scenario_config(w.rules, 0, opts));
    programs.install_ruleset(w.rules);
    Engine engine(engine_config(opts, /*loop=*/false), programs);
    fill_engine_stats(r, engine.run(pool), programs);
    verify_oracle(r, programs, w.trace);
    return r;
  };
}

/// A finite body over a ClassBench-family ruleset with standard traffic.
ScenarioBody family(std::string name) {
  return finite([name = std::move(name)](const ScenarioOptions& opts) {
    return family_workload(opts, name, 0xABCD);
  });
}

ScenarioResult run_update_storm(const ScenarioOptions& opts,
                                const std::string& name) {
  ScenarioResult r;
  const ScenarioWorkload w = obtain_workload(opts, name, storm_workload);
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
  TrafficPool pool =
      TrafficPool::from_trace(trace, /*materialize_packets=*/false);
  Engine engine(engine_config(opts, /*loop=*/true), programs);
  engine.start(pool);
  const auto t0 = std::chrono::steady_clock::now();
  for (const sdn::Message& msg : storm.schedule) {
    programs.apply(msg);
  }
  const double storm_secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  fill_engine_stats(r, engine.stop(), programs);
  fill_schedule(r, storm.schedule.size(), storm_secs);
  verify_oracle(r, programs, trace);
  return r;
}

/// Multi-writer storm: N controller threads push paced add/delete churn
/// through the publisher's writer mutex while workers classify — the
/// writer-side contention the single-writer storm cannot produce. Every
/// publish rotates the workers onto the other replica hundreds of times
/// mid-trace. The oracle check below re-classifies the trace on the
/// final snapshot only: it judges no verdict the storm delivered. The
/// engine runs in loop mode, which cannot capture verdicts, so a stale
/// serve from an old snapshot or the flow cache goes unseen here. The
/// chaos scenario judges every delivered verdict, cache hits included.
ScenarioResult run_update_storm_multi(const ScenarioOptions& opts,
                                      const std::string& name) {
  ScenarioResult r;
  const ScenarioWorkload w = obtain_workload(opts, name, storm_workload);
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
  TrafficPool pool =
      TrafficPool::from_trace(w.trace, /*materialize_packets=*/false);
  Engine engine(engine_config(opts, /*loop=*/true), programs);
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
  fill_engine_stats(r, engine.stop(), programs);
  for (const std::string& err : writer_errors) {
    if (!err.empty() && r.error.empty()) {
      r.error = "update-storm-multi writer: " + err;
    }
  }
  fill_schedule(r, total_updates, storm_secs);
  verify_oracle(r, programs, w.trace);
  return r;
}

/// The default seeded plan: worker 1 thrown past its retry budget on
/// three consecutive sweeps (-> 2 restarts, then permanent failure and
/// shard takeover), worker 2 stalled well past the watchdog deadline,
/// and one publisher apply failed mid-storm (retried by the scenario).
/// Sweep indices 1..3 so the plan fires even at the minimum trace floor
/// (two batches per shard).
constexpr const char* kDefaultChaosPlan =
    "throw:w=1@1,throw:w=1@2,throw:w=1@3,stall:w=2@1:ms=250,pubfail:u=2";

/// \p storm with a modify of a hot rule after every 4th message. The hot
/// rules are the 8 that \p clf matches for the most of \p trace's first
/// 4096 headers; each modify gives the next of them, round robin, a
/// fresh output port. Live flows' cached verdicts then change mid-run:
/// a flow cache that served a line past its rule's modify would hand
/// out the old action, and the per-version judge would catch it.
std::vector<sdn::Message> with_hot_modifies(
    const std::vector<sdn::Message>& storm,
    const core::ConfigurableClassifier& clf, const net::Trace& trace) {
  std::map<RuleId, usize> hits;
  for (usize i = 0; i < std::min<usize>(trace.size(), 4096); ++i) {
    if (const auto m = clf.classify(trace[i].header).match) ++hits[m->rule];
  }
  std::vector<std::pair<usize, RuleId>> hot;
  for (const auto& [id, n] : hits) hot.emplace_back(n, id);
  std::sort(hot.rbegin(), hot.rend());
  hot.resize(std::min<usize>(hot.size(), 8));

  std::vector<sdn::Message> out;
  for (usize k = 0; k < storm.size(); ++k) {
    out.push_back(storm[k]);
    if (k % 4 != 3 || hot.empty()) continue;
    const usize m = k / 4;
    sdn::FlowMod mod;
    mod.command = sdn::FlowMod::Command::kModify;
    mod.cookie = hot[m % hot.size()].second;
    mod.action = sdn::ActionSpec::output(static_cast<u16>(1 + m % 60));
    out.emplace_back(mod);
  }
  return out;
}

/// Chaos scenario: the fw-like workload on flow-steered shards under a
/// seeded FaultPlan with the supervisor on and the flow cache in the
/// loop. Every delivered verdict, cache hits included, is checked
/// against the LinearSearch oracle at its snapshot version, and
/// the run must conserve packets exactly: delivered + shed + lost ==
/// offered.
ScenarioResult run_chaos(const ScenarioOptions& opts,
                         const std::string& name) {
  ScenarioResult r;
  const ScenarioWorkload w =
      obtain_workload(opts, name, [](const ScenarioOptions& o) {
        return family_workload(o, "fw", 0xC4A0);
      });
  r.rules = w.rules.size();
  r.trace_packets = w.trace.size();

  fault::FaultPlan plan = fault::FaultPlan::parse(
      opts.fault_plan.empty() ? kDefaultChaosPlan : opts.fault_plan);
  r.fault_plan = plan.to_string();
  fault::FaultInjector injector(std::move(plan));

  // At least 3 workers: the default plan targets workers 1 and 2, and
  // worker 0 survives to take over worker 1's shard.
  ScenarioOptions copts = opts;
  copts.workers = std::max<usize>(opts.workers, 3);
  EngineConfig ecfg = engine_config(copts, /*loop=*/false);
  ecfg.capture_verdicts = true;
  ecfg.fault_injector = &injector;
  ecfg.supervisor.enabled = true;
  ecfg.supervisor.watchdog_interval_ms = 5;
  ecfg.supervisor.stall_deadline_ms = 60;
  ecfg.supervisor.max_restarts = 2;
  ecfg.supervisor.restart_backoff_ms = 5;

  usize updates = scaled(400, opts.scale, 64);
  updates &= ~usize{1};
  RuleProgramPublisher programs(scenario_config(w.rules, 512, opts));
  programs.install_ruleset(w.rules);
  const std::vector<sdn::Message> schedule = with_hot_modifies(
      make_update_storm(w.rules, updates, /*first_id=*/60'000,
                        opts.seed ^ 0x0BAD)
          .schedule,
      programs.acquire()->classifier(), w.trace);
  programs.set_fault_hook([&injector] { injector.on_publisher_apply(); });
  dataplane::VersionedOracle oracles;
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
  for (const sdn::Message& msg : schedule) {
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
  for (const auto& stream : rep.captured) oracles.judge(stream);
  fill_engine_stats(r, std::move(rep), programs);
  fill_schedule(r, schedule.size(), storm_secs);
  note_oracle(r, oracles.result());
  r.injected = injector.counters();
  if (opts.fault_plan.empty()) {
    // The built-in plan's effects are deterministic; their absence means
    // the fault plane or the supervisor silently did nothing.
    using telemetry::EngineCounter;
    if (r.error.empty() &&
        r.engine_counters[EngineCounter::worker_restarts] < 1) {
      r.error = "chaos: expected >= 1 worker restart under the default plan";
    }
    if (r.error.empty() &&
        r.engine_counters[EngineCounter::shards_reassigned] < 1) {
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
  if (opts_.workers == 0) {
    throw ConfigError("ScenarioRunner: workers must be > 0");
  }
  if (opts_.scale <= 0) {
    throw ConfigError("ScenarioRunner: scale must be > 0");
  }
}

const std::vector<ScenarioSpec>& ScenarioRunner::catalog() {
  static const std::vector<ScenarioSpec> kCatalog = {
      {"acl-like",
       "ACL-shaped ruleset (host-heavy, exact dports), standard trace",
       family("acl")},
      {"fw-like",
       "FW-shaped ruleset (wildcards, port ranges, nesting), standard "
       "trace",
       family("fw")},
      {"ipc-like",
       "IPC-shaped ruleset (correlated endpoint pairs), standard trace",
       family("ipc")},
      {"zipf-locality",
       "heavy-head Zipf flows with bursts — the flow cache's best case",
       finite(zipf_locality_workload)},
      {"cache-thrash",
       "8x more active flows than cache lines, maximal repeat distance",
       finite(cache_thrash_workload)},
      {"trie-depth",
       "headers walking the longest installed prefixes (worst-case "
       "lookup depth)",
       finite(trie_depth_workload)},
      {"update-storm",
       "southbound add/delete churn through the RCU publisher under "
       "concurrent lookups",
       run_update_storm},
      {"update-storm-multi",
       "paced 4-writer churn contending on the publisher's writer mutex "
       "— snapshot swaps stress flow-cache invalidation mid-trace",
       run_update_storm_multi},
      {"chaos",
       "fw-like workload on flow-steered shards under a seeded "
       "FaultPlan: worker kills, a stall and a failed publisher apply — "
       "supervised, oracle-clean and packet-conserving",
       run_chaos},
  };
  return kCatalog;
}

namespace {

/// The catalog entry called \p name. \throws ConfigError if none is.
const ScenarioSpec& find_spec(const std::string& name) {
  const auto& specs = ScenarioRunner::catalog();
  const auto it =
      std::find_if(specs.begin(), specs.end(),
                   [&](const ScenarioSpec& s) { return s.name == name; });
  if (it != specs.end()) return *it;
  std::string known;
  for (const auto& s : specs) {
    known += (known.empty() ? "" : ", ") + s.name;
  }
  throw ConfigError("unknown scenario '" + name + "' (catalog: " + known +
                    ")");
}

}  // namespace

ScenarioResult ScenarioRunner::run(const std::string& name) {
  const ScenarioSpec& spec = find_spec(name);
  ScenarioResult r;
  try {
    r = spec.body(opts_, spec.name);
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  r.name = spec.name;
  r.description = spec.description;
  return r;
}

std::vector<ScenarioResult> ScenarioRunner::run_many(
    const std::vector<std::string>& names) {
  // Validate every name up front so an unknown one throws before any
  // scenario runs.
  for (const std::string& name : names) (void)find_spec(name);
  std::vector<ScenarioResult> out;
  out.reserve(names.size());
  for (const std::string& name : names) out.push_back(run(name));
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
  j.key("schema").value("pclass-scenarios-v9");
  j.key("meta").begin_object();
  j.key("build").begin_object();
  common::write_build_fields(j);
  j.end_object();
  j.end_object();
  j.key("options").begin_object();
  j.key("workers").value(opts.workers);
  j.key("batch_size").value(opts.batch_size);
  j.key("flow_cache_depth").value(opts.flow_cache_depth);
  j.key("scale").value(opts.scale);
  j.key("seed").value(u64{opts.seed});
  j.key("ip_algorithm").value(std::string(to_string(opts.ip_algorithm)));
  j.key("stats_interval_ms").value(u64{opts.stats_interval_ms});
  j.key("fault_plan").value(opts.fault_plan);
  j.end_object();
  telemetry::write_counter_table(j.key("counters"), telemetry::kCounters);
  telemetry::write_counter_table(j.key("engine_counters"),
                                 telemetry::kEngineCounters);
  telemetry::write_counter_table(j.key("publisher_counters"),
                                 telemetry::kPublisherCounters);
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
    j.end_object();
    telemetry::write_counter_object(j, "publisher", r.publisher);
    j.key("oracle").begin_object();
    j.key("checked").value(r.oracle_checked);
    j.key("mismatches").value(r.oracle_mismatches);
    j.end_object();
    telemetry::write_counter_object(j, "engine", r.engine_counters);
    j.key("conservation").begin_object();
    j.key("checked").value(r.conservation_checked);
    j.key("conserved").value(r.conserved);
    j.end_object();
    j.key("fault").begin_object();
    j.key("plan").value(r.fault_plan);
    j.key("injected").begin_object();
    j.key("worker_throws").value(r.injected.worker_throws);
    j.key("worker_stalls").value(r.injected.worker_stalls);
    j.key("publish_failures").value(r.injected.publish_failures);
    j.key("conn_drops").value(r.injected.conn_drops);
    j.end_object();
    j.end_object();
    j.key("telemetry").begin_object();
    telemetry::write_update_visibility(j, e.counters);
    j.key("timeseries").begin_array();
    for (const telemetry::StatsSample& s : r.timeseries) {
      telemetry::write_stats_sample(j, s);
    }
    j.end_array();
    j.end_object();
    dataplane::write_shard_rows(j, r.shard_reports);
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
