/// \file engine.hpp
/// The dataplane Engine: N worker threads over N flow-steered shards.
/// Before the workers start, the caller's TrafficPool is split RSS-style
/// into one per-flow consistent slice per shard (a one-worker engine's
/// single shard drains the caller's pool in place); shard s starts on
/// worker s, and a worker drives more than one shard only after the
/// supervisor hands it a dead worker's shards. Each shard owns its own
/// element chain (PacketSource -> Parser -> [FlowCache] -> Classifier ->
/// ActionSink, see elements.hpp) and pushes per-worker PacketBatches
/// through it. Workers
/// share exactly one thing on the fast path, wait-free: the published
/// RuleProgram pointer. Everything else — pools, batches, flow caches,
/// statistics — is per shard, which is what lets the aggregate
/// throughput scale with cores while a concurrent writer streams rule
/// updates through the publisher.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "dataplane/elements.hpp"
#include "dataplane/flow_steer.hpp"
#include "dataplane/rule_program.hpp"
#include "dataplane/stats.hpp"
#include "fault/fault.hpp"
#include "telemetry/live_stats.hpp"
#include "telemetry/sampler.hpp"

namespace pclass::dataplane {

/// Engine self-healing policy (the watchdog; see docs/ROBUSTNESS.md).
/// Every worker runs the same sweep loop, heartbeat included; `enabled`
/// only starts the watchdog thread that reads it. Off by default: a
/// worker that throws is reported dead in WorkerReport::error and its
/// traffic is lost.
struct SupervisorConfig {
  bool enabled = false;
  /// Watchdog scan period.
  u64 watchdog_interval_ms = 20;
  /// A worker whose heartbeat has not advanced for this long counts as
  /// one stall episode (counted once; it re-arms when the heartbeat
  /// moves again). Stalled workers are not killed — a C++ thread can't
  /// be — they are expected to resume or exit.
  u64 stall_deadline_ms = 500;
  /// Times a dead worker is respawned before it is declared
  /// permanently failed and its undrained shards handed to a survivor.
  usize max_restarts = 2;
  /// First restart back-off; doubles per restart. Abort-aware (a
  /// stop()/drain cancels the wait).
  u64 restart_backoff_ms = 10;
};

/// Engine geometry and policy.
struct EngineConfig {
  /// Worker threads, and as many flow-steered shards (>= 1). Every
  /// shard holds the full ruleset, so steering only buys cache
  /// locality: verdicts do not depend on the worker count.
  usize workers = 1;
  usize batch_size = net::kDefaultBatchCapacity;  ///< >= 1
  /// Per-worker exact-match flow-cache lines; 0 disables the cache.
  u32 flow_cache_depth = 0;
  /// false: drain the pool once and return (run()).
  /// true: wrap the pool endlessly until stop() (start()/stop()).
  bool loop = false;
  /// Master telemetry switch: per-worker live counters + trace rings +
  /// update-visibility sampling. Always on by default (the contract is
  /// near-zero cost — the overhead gate in bench_dataplane holds it
  /// under 3% Mpps); false is the gate's baseline leg.
  bool telemetry = true;
  /// Run a background StatsSampler snapshotting all workers every this
  /// many ms onto EngineReport::timeseries. 0 = no sampler thread
  /// (end-of-run totals only). Requires `telemetry`.
  u64 stats_interval_ms = 0;
  /// Keep drained TraceRing events in EngineReport::trace_events (the
  /// chrome://tracing export). Off: rings are still written and drop
  /// accounting still works, but drains discard the payload.
  bool collect_trace = false;
  /// Record every packet's verdict (arrival order, per shard) into
  /// EngineReport::captured — the sharded differential fuzzer's hook.
  /// Finite runs only.
  bool capture_verdicts = false;
  /// Test hook: invoked as (worker_index) once per batch iteration in
  /// worker_main before the pipeline runs. A throw propagates through
  /// the worker's normal exception capture into WorkerReport::error —
  /// how the error-surfacing tests inject a worker fault. nullptr in
  /// production.
  std::function<void(usize)> worker_fault_hook;
  /// Seeded fault-injection plane: consulted once per worker sweep
  /// (throw/stall events). Borrowed — must outlive the run. start()
  /// wires the injector's abort flag to the engine stop signal so
  /// injected stalls cancel on drain/shutdown, and throws ConfigError
  /// when a throw/stall event targets a worker the engine does not run.
  /// nullptr in production.
  fault::FaultInjector* fault_injector = nullptr;
  /// Self-healing supervisor (heartbeats + watchdog + bounded restarts
  /// + shard takeover). See SupervisorConfig.
  SupervisorConfig supervisor;
};

/// Multi-worker batched dataplane runtime.
class Engine {
 public:
  /// \throws ConfigError for zero workers or a zero batch size.
  Engine(EngineConfig cfg, const RuleProgramPublisher& programs);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Drain a finite pool across all workers and report.
  /// \throws ConfigError in loop mode (use start()/stop()).
  EngineReport run(TrafficPool& pool);

  /// Launch the workers without blocking (loop mode's entry point).
  /// \throws ConfigError for a fault plan the engine cannot run.
  void start(TrafficPool& pool);

  /// Signal, join and report. Idempotent once stopped.
  EngineReport stop();

  /// Join a start()ed finite run WITHOUT raising the stop flag: blocks
  /// until the run concludes — every packet delivered or explicitly
  /// shed, all supervisor restarts/takeovers resolved — then reports.
  /// The chaos path: start(), stream updates (some injected to fail),
  /// wait(). \throws ConfigError in loop mode (nothing concludes).
  EngineReport wait();

  [[nodiscard]] bool running() const { return running_; }
  [[nodiscard]] const EngineConfig& config() const { return cfg_; }

  /// Every engine row (telemetry/counters.hpp), live: relaxed reads,
  /// safe while running; final once the run was stopped or waited for.
  [[nodiscard]] telemetry::EngineCounterSet counters() const;

  // ---- control-surface attach points (PR 7) ----
  // The live-introspection plane reads the running engine without
  // stopping it. Callers serialize against stop() themselves (the
  // ControlPlane holds one mutex across handler dispatch and drain).

  /// The background StatsSampler, or nullptr when stats_interval_ms is
  /// 0 / telemetry is off / the engine's telemetry epilogue already ran.
  /// Borrowed; invalidated by stop().
  [[nodiscard]] telemetry::StatsSampler* sampler() { return sampler_.get(); }

  /// Per-worker live telemetry blocks (empty when telemetry is off).
  /// Stable from start() until the *next* start(); the counters stay
  /// readable after stop() (they are totals, frozen once workers join).
  [[nodiscard]] std::vector<const telemetry::WorkerTelemetry*>
  telemetry_blocks() const {
    std::vector<const telemetry::WorkerTelemetry*> out;
    out.reserve(tel_.size());
    for (const auto& t : tel_) out.push_back(t.get());
    return out;
  }

 private:
  /// One chain's worth of state. The shard is the unit of ownership:
  /// traffic slice, classifier subscription, flow cache, telemetry block
  /// and (when capturing) the verdict log all live here, on the shard's
  /// own allocations. The elements hold pointers into the shard, so it
  /// stays where it was constructed.
  struct Shard {
    /// Shard \p s drains \p borrowed when non-null (the engine's one
    /// shard), else its own steered slice \p steered.
    Shard(usize s, TrafficPool* borrowed, TrafficPool steered,
          const EngineConfig& cfg, const RuleProgramPublisher& programs,
          telemetry::WorkerTelemetry* tel);

    usize index = 0;   ///< shard id
    usize owner = 0;   ///< driving worker thread (starts as index)
    /// Owned steered slice; empty when the engine's one shard borrows
    /// the caller's pool.
    TrafficPool pool;
    TrafficPool* active_pool = nullptr;  ///< what the source drains
    /// In-arrival-order verdict log (capture_verdicts).
    std::vector<CapturedVerdict> captured;
    PacketSource source;
    Parser parser;
    std::optional<FlowCacheElement> cache;  ///< none at flow_cache_depth 0
    ClassifierElement classifier;
    ActionSink sink;
    /// Set by the owning worker once the shard's source ran dry. Owner-
    /// written, watchdog-read: it is what survives a worker restart or
    /// a takeover.
    std::atomic<bool> drained{false};
  };

  /// An OS thread driving its own shard and, after a takeover, a dead
  /// worker's shards round-robin.
  struct WorkerThread {
    usize index = 0;
    /// Owned shards, guarded by mu: the watchdog reassigns shards on
    /// takeover and the worker copies the list per sweep.
    std::vector<Shard*> shards;
    std::thread thread;
    double wall_seconds = 0;
    std::string error;  ///< exception text if the (last) incarnation died
    // ---- supervisor state (PR 9) ----
    mutable std::mutex mu;          ///< guards `shards`
    std::atomic<u64> heartbeat{0};  ///< one tick per sweep (stall detect)
    std::atomic<u64> sweeps{0};     ///< persistent sweep counter (injector)
    std::atomic<bool> exited{false};  ///< thread function returned
    std::atomic<u64> restarts{0};   ///< respawns performed by the watchdog
    std::atomic<bool> failed_permanently{false};
    u64 shards_lost = 0;  ///< undrained shards with no survivor to take them
    /// Every incarnation's death message, in order (watchdog-written
    /// after joining the dead thread; read after the watchdog joins).
    std::vector<std::string> all_errors;
  };

  void worker_main(WorkerThread& w);
  /// (Re)launch w's OS thread running worker_main (exited is cleared
  /// first; wall_seconds stays measured from engine start).
  void spawn_worker(WorkerThread& w);
  /// The watchdog: scans heartbeats every watchdog_interval_ms, joins
  /// and respawns dead workers (bounded, backed-off), counts stall
  /// episodes, and hands a permanently-failed worker's undrained
  /// shards to a survivor. Exits once the run concluded or the engine
  /// is stopping.
  void watchdog_main();
  /// Move w's undrained shards to the first non-failed survivor;
  /// without one, record them as lost on w.
  void take_over_shards(WorkerThread& w);
  /// Does w still own a shard whose pool is not fully delivered?
  [[nodiscard]] static bool has_undrained(const WorkerThread& w);
  /// Flag w dead for good and count it in the workers_failed row.
  void fail_permanently(WorkerThread& w);
  EngineReport finish(bool signal_stop);
  [[nodiscard]] EngineReport collect() const;
  /// WorkerReport for one shard's elements (worker = shard index).
  [[nodiscard]] WorkerReport shard_report(const Shard& s) const;
  /// How many drained spans the engine retains for the export (0 when
  /// not collecting).
  [[nodiscard]] usize trace_keep() const;

  EngineConfig cfg_;
  /// The one publisher every shard subscribes to.
  const RuleProgramPublisher& programs_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<WorkerThread>> threads_;
  /// Per-shard telemetry blocks (index-aligned with shards_; empty
  /// when cfg_.telemetry is false). unique_ptr keeps each block at its
  /// own cache-line-aligned allocation. Safe despite multi-shard
  /// threads: exactly one thread owns each shard, so each block keeps a
  /// single writer.
  std::vector<std::unique_ptr<telemetry::WorkerTelemetry>> tel_;
  std::unique_ptr<telemetry::StatsSampler> sampler_;
  std::vector<telemetry::StatsSample> timeseries_;
  std::vector<telemetry::TraceEvent> trace_events_;
  bool final_drained_ = false;  ///< rings flushed after the last join
  std::atomic<bool> stop_{false};
  bool running_ = false;
  double wall_seconds_ = 0;
  // ---- supervisor + conservation state (PR 9) ----
  std::chrono::steady_clock::time_point start_time_;
  std::thread watchdog_;
  std::atomic<bool> watchdog_stop_{false};
  /// Every worker concluded: exited clean, or permanently failed with
  /// its shards reassigned/accounted. What wait() blocks on.
  std::atomic<bool> run_concluded_{false};
  /// The engine rows. Supervisor rows count as the watchdog acts; the
  /// ledger rows are taken once at the first finish();
  /// trace_events_dropped is read off the rings by counters().
  telemetry::LiveCounters<telemetry::EngineCounterSet> counters_;
  bool conservation_checked_ = false;
};

}  // namespace pclass::dataplane
