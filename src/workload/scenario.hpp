/// \file scenario.hpp
/// The scenario catalog and runner: named (ruleset, traffic, churn)
/// combinations driven through the dataplane Engine with a
/// machine-readable result per scenario.
///
/// Every scenario is verified by the dataplane's verdict judge (rule id,
/// priority and action must all equal baseline::LinearSearch's, in
/// CrossProduct combine mode, so agreement must be exact): chaos judges
/// every delivered verdict at its snapshot version, every other scenario
/// re-classifies its trace on the final published snapshot. A scenario
/// with any mismatch, worker error or non-monotonic snapshot version
/// reports !ok(), which the pclass_scenario tool turns into a nonzero
/// exit for CI.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "dataplane/flow_steer.hpp"
#include "dataplane/stats.hpp"
#include "fault/fault.hpp"
#include "net/packet_batch.hpp"
#include "telemetry/sample.hpp"
#include "telemetry/trace_ring.hpp"

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
  /// counter row, lookup cycles, the version range and monotonicity.
  dataplane::WorkerReport engine;
  /// Every engine row (EngineReport::counters): the supervisor rollup
  /// (zero outside the chaos scenario unless a worker actually died),
  /// the conservation ledger and trace-span loss.
  telemetry::EngineCounterSet engine_counters;
  /// The engine computed the ledger rows (every finite run does), and
  /// they conserve (EngineReport::conserved()).
  bool conservation_checked = false;
  bool conserved = true;
  double wall_seconds = 0;
  double mpps = 0;

  /// The publisher rows at the end of the run (install included).
  telemetry::PublisherCounterSet publisher;

  // The update schedule (the storm and chaos scenarios; zero elsewhere).
  u64 updates_applied = 0;
  double updates_per_sec = 0;

  // Oracle verification vs baseline::LinearSearch.
  usize oracle_checked = 0;
  usize oracle_mismatches = 0;

  // Telemetry: the sampler's interval series and the raw span events
  // the chrome trace export consumes.
  std::vector<telemetry::StatsSample> timeseries;
  std::vector<telemetry::TraceEvent> trace_events;
  /// Every worker error, surfaced as the report's `errors` array
  /// (WorkerErrorDetail::line()); r.error carries the first *fatal* one
  /// for ok() — healed deaths (supervisor restarted the worker and the
  /// run concluded) are informational.
  std::vector<std::string> worker_errors;

  // Fault injection (chaos scenario).
  std::string fault_plan;  ///< round-tripped plan actually injected
  fault::FaultCounters injected;  ///< fired events
  /// Raw per-shard rows (EngineReport::shards; one per worker) — the
  /// report's `shards` array. Invariant:
  /// per-counter sums equal the engine totals above.
  std::vector<dataplane::WorkerReport> shard_reports;

  std::string error;  ///< non-empty when the scenario failed to run

  [[nodiscard]] bool ok() const {
    return error.empty() && oracle_mismatches == 0 &&
           engine.version_monotonic;
  }
};

/// A scenario's body: builds its workload (obtaining it under \p name
/// when --save-/--load-workloads is set), runs it and verifies it.
using ScenarioBody =
    std::function<ScenarioResult(const ScenarioOptions&, const std::string&)>;

/// Catalog entry: a name the CLI accepts, a one-line description and
/// the body that runs it.
struct ScenarioSpec {
  std::string name;
  std::string description;
  ScenarioBody body;
};

/// Runs scenarios from the built-in catalog, one at a time.
class ScenarioRunner {
 public:
  explicit ScenarioRunner(ScenarioOptions opts = {});

  /// The built-in catalog (stable order; >= 6 scenarios).
  [[nodiscard]] static const std::vector<ScenarioSpec>& catalog();

  /// Run one scenario by name. Never throws for scenario-internal
  /// failures — those land in result.error; unknown names throw
  /// ConfigError.
  [[nodiscard]] ScenarioResult run(const std::string& name);

  /// Run a list of scenarios in order; results keep the list's order.
  /// Unknown names throw ConfigError before anything runs.
  [[nodiscard]] std::vector<ScenarioResult> run_many(
      const std::vector<std::string>& names);

  /// Run the whole catalog; results in catalog order.
  [[nodiscard]] std::vector<ScenarioResult> run_all();

  [[nodiscard]] const ScenarioOptions& options() const { return opts_; }

 private:
  ScenarioOptions opts_;
};

/// Emit the single JSON report CI archives (schema
/// "pclass-scenarios-v9"): options, the worker, engine and publisher
/// counter tables, per-scenario results and the aggregate all_ok
/// verdict.
void write_json_report(std::ostream& os, const ScenarioOptions& opts,
                       const std::vector<ScenarioResult>& results);

[[nodiscard]] bool all_ok(const std::vector<ScenarioResult>& results);

}  // namespace pclass::workload
