/// \file scenario.hpp
/// The scenario catalog and runner: named (ruleset, traffic, churn)
/// combinations driven through the dataplane Engine with a
/// machine-readable result per scenario.
///
/// Every scenario is oracle-verified: each distinct header the engine
/// classified is re-classified against the published RuleProgram
/// snapshot and compared with baseline::LinearSearch ground truth
/// (CrossProduct combine mode, so agreement must be exact). A scenario
/// with any mismatch, worker error or non-monotonic snapshot version
/// reports !ok(), which the pclass_scenario tool turns into a nonzero
/// exit for CI.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "dataplane/flow_steer.hpp"
#include "dataplane/stats.hpp"
#include "net/packet_batch.hpp"
#include "telemetry/sample.hpp"
#include "telemetry/trace_ring.hpp"

namespace pclass::dataplane {
class WorkerBudget;
}

namespace pclass::workload {

/// Engine geometry and scaling knobs shared by all scenarios.
struct ScenarioOptions {
  usize workers = 4;
  usize batch_size = net::kDefaultBatchCapacity;
  u32 flow_cache_depth = 4096;
  /// Multiplier on ruleset/trace sizes (CI smoke runs ~0.15).
  double scale = 1.0;
  u64 seed = 2026;
  /// IP lookup backend for every scenario's device (--ip-alg): the
  /// per-family win/loss axis of the catalog (MBT/BST trie family vs
  /// the incremental-update RVH).
  core::IpAlgorithm ip_algorithm = core::IpAlgorithm::kMbt;
  /// Scenarios run concurrently by run_all()/run_many() (results are
  /// independent; report order stays catalog order). 0 = auto: as many
  /// as the worker budget can serve at full width (max_workers /
  /// workers-per-scenario); 1 = sequential.
  usize parallel = 0;
  /// Capacity of the runner's shared dataplane::WorkerBudget: total
  /// engine worker threads across *all* concurrently-running scenarios
  /// (--max-workers). 0 = auto (the hardware thread count), so a
  /// parallel catalog run can never oversubscribe the host with
  /// scenarios x workers threads.
  usize max_workers = 0;
  /// When non-empty, write each scenario's synthesized workload to
  /// DIR/<scenario>.rules.pcr1 + DIR/<scenario>.trace.pct1 (versioned
  /// binio formats, byte-stable across hosts).
  std::string save_workloads_dir;
  /// When non-empty, load workloads from that directory instead of
  /// re-synthesizing — cross-PR perf comparisons become byte-identical
  /// instead of merely seed-identical.
  std::string load_workloads_dir;
  /// Run each scenario's engine with a background StatsSampler at this
  /// interval (--stats-interval-ms); its delta series lands in the
  /// report's `timeseries` array. 0 = off.
  u64 stats_interval_ms = 0;
  /// Keep per-batch TraceRing events in ScenarioResult::trace_events
  /// (--trace-out sets this; the events feed the chrome://tracing
  /// export, they are not embedded in the JSON report).
  bool collect_trace = false;
  /// RSS-style shard count (--shards). 0 = unsharded (the legacy
  /// geometry: every worker thread drains the shared pool).
  /// Each shard drains a steered per-flow slice with the full ruleset.
  usize shards = 0;
  /// Symmetric steering hash: both flow directions land on one shard.
  bool steer_symmetric = false;
  /// Fault-injection plan for the chaos scenario (--fault-plan), in
  /// fault::FaultPlan spec grammar. Empty = the chaos scenario's
  /// built-in seeded plan (one worker killed past its retry budget,
  /// one stall, one failed publisher apply); other scenarios ignore it.
  std::string fault_plan;
};

/// One scenario's measurement + verification outcome.
struct ScenarioResult {
  std::string name;
  std::string description;

  // Workload shape.
  usize rules = 0;
  usize trace_packets = 0;

  // Engine measurement.
  /// The worker rows merged into one (dataplane::merge_reports): every
  /// counter row, lookup cycles, the version range and monotonicity
  /// and the trace-ring drops.
  dataplane::WorkerReport engine;
  double wall_seconds = 0;
  double mpps = 0;

  // Update churn (update-storm scenario; zero elsewhere).
  u64 updates_applied = 0;
  double updates_per_sec = 0;
  u64 grace_spins = 0;

  // Oracle verification vs baseline::LinearSearch.
  usize oracle_checked = 0;
  usize oracle_mismatches = 0;

  // Telemetry (PR 6): the sampler's interval series, ring-drop
  // accounting, update-visibility latency and the raw span events the
  // chrome trace export consumes.
  std::vector<telemetry::StatsSample> timeseries;
  std::vector<telemetry::TraceEvent> trace_events;
  /// Spans measured but not retained (per-engine trace_keep_limit).
  u64 trace_events_truncated = 0;
  /// Every worker error, surfaced as the report's `errors` array with
  /// worker index + restart count ("worker N [restarts=R, healed|
  /// permanent]: what"); r.error carries the first *fatal* one for
  /// ok() — healed deaths (supervisor restarted the worker and the run
  /// concluded) are informational.
  std::vector<std::string> worker_errors;

  // Robustness (PR 9): supervisor + fault accounting (zero outside the
  // chaos scenario unless a worker actually died) and the conservation
  // ledger the engine computes for every finite run.
  std::string fault_plan;  ///< round-tripped plan actually injected
  u64 worker_restarts = 0;
  u64 stall_detections = 0;
  u64 shards_reassigned = 0;
  u64 workers_failed = 0;
  u64 injected_worker_throws = 0;
  u64 injected_worker_stalls = 0;
  u64 injected_publish_failures = 0;
  u64 injected_conn_drops = 0;
  bool conservation_checked = false;
  u64 offered_packets = 0;
  u64 delivered_packets = 0;
  u64 shed_packets = 0;    ///< offered but never claimed (owner died)
  u64 lost_packets = 0;    ///< claimed but in flight inside a dead worker
  bool conserved = true;   ///< delivered + shed + lost == offered
  /// Raw per-shard rows (EngineReport::shards; empty when the scenario
  /// ran unsharded) — the report's `shards` array. Invariant:
  /// per-counter sums equal the engine totals above.
  std::vector<dataplane::WorkerReport> shard_reports;

  std::string error;  ///< non-empty when the scenario failed to run

  [[nodiscard]] bool ok() const {
    return error.empty() && oracle_mismatches == 0 &&
           engine.version_monotonic;
  }
};

/// Catalog entry: a name the CLI accepts plus a one-line description.
struct ScenarioSpec {
  std::string name;
  std::string description;
};

/// Runs scenarios from the built-in catalog.
class ScenarioRunner {
 public:
  explicit ScenarioRunner(ScenarioOptions opts = {});
  ~ScenarioRunner();

  /// The built-in catalog (stable order; >= 6 scenarios).
  [[nodiscard]] static const std::vector<ScenarioSpec>& catalog();

  /// Run one scenario by name. Never throws for scenario-internal
  /// failures — those land in result.error; unknown names throw
  /// ConfigError. Thread-safe: scenarios share nothing but the
  /// (read-only) options, which is what run_many() exploits.
  [[nodiscard]] ScenarioResult run(const std::string& name);

  /// Run a list of scenarios on a small thread pool
  /// (ScenarioOptions::parallel), preserving the list's order in the
  /// results. Unknown names throw ConfigError before anything runs.
  [[nodiscard]] std::vector<ScenarioResult> run_many(
      const std::vector<std::string>& names);

  /// Run the whole catalog; results in catalog order.
  [[nodiscard]] std::vector<ScenarioResult> run_all();

  [[nodiscard]] const ScenarioOptions& options() const { return opts_; }

  /// The shared worker budget every scenario's engine draws from
  /// (capacity = resolved max_workers). Its peak_in_use() is the
  /// high-water mark of concurrent engine worker threads across the
  /// runner's lifetime — what the cap tests assert on.
  [[nodiscard]] dataplane::WorkerBudget& budget() { return *budget_; }

 private:
  ScenarioOptions opts_;
  std::unique_ptr<dataplane::WorkerBudget> budget_;
};

/// Emit the single JSON report CI archives (schema
/// "pclass-scenarios-v5"): options, per-scenario results and the
/// aggregate all_ok verdict.
void write_json_report(std::ostream& os, const ScenarioOptions& opts,
                       const std::vector<ScenarioResult>& results);

[[nodiscard]] bool all_ok(const std::vector<ScenarioResult>& results);

}  // namespace pclass::workload
