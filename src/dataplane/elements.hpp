/// \file elements.hpp
/// The dataplane's one chain, the lookup of Fig. 3 with its input and
/// output:
///
///   PacketSource -> Parser -> [FlowCache] -> Classifier -> ActionSink
///
/// Each element is a plain class whose push_batch() annotates a
/// PacketBatch in place; push_chain() calls them in that order. Elements
/// are owned per shard (no sharing, no locks inside an element); what
/// shards share — the rule program, the traffic pool — is reached
/// through explicitly thread-safe handles.
///
/// PacketSource pulls bursts from its shard's TrafficPool (the Engine
/// steers the input into one pool per shard; a one-worker engine's
/// shard drains the caller's pool in place).
/// Parser turns raw bytes into 5-tuples (phase 1 of Fig. 3 plus the
/// pre-classifier drop path). FlowCache serves repeat flows from a
/// per-worker exact-match table (the paper's first-packet-of-a-flow
/// premise). A batch sees one RuleProgram snapshot: the flow cache
/// acquires it, syncs to it and serves its hits from it; the classifier
/// takes it from the cache (or acquires it when the chain has none),
/// runs the full 4-phase lookup for the misses on it and stamps the
/// batch with its version. ActionSink applies verdict accounting and
/// latency measurement.
#pragma once

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "core/flow_cache.hpp"
#include "dataplane/rule_program.hpp"
#include "dataplane/stats.hpp"
#include "net/packet.hpp"
#include "net/packet_batch.hpp"
#include "net/trace.hpp"
#include "telemetry/live_stats.hpp"

namespace pclass::dataplane {

/// An immutable-after-setup pool of input traffic with a claim cursor.
/// A shard's source claims consecutive spans of it; in loop mode the
/// cursor wraps, modelling an endless line-rate feed.
class TrafficPool {
 public:
  TrafficPool() = default;
  // Movable for factory returns (the atomic cursor restarts at the
  // moved-from position; pools are only moved during setup).
  TrafficPool(TrafficPool&& o) noexcept
      : packets_(std::move(o.packets_)),
        tuples_(std::move(o.tuples_)),
        cursor_(o.cursor_.load(std::memory_order_relaxed)) {}
  TrafficPool& operator=(TrafficPool&& o) noexcept {
    packets_ = std::move(o.packets_);
    tuples_ = std::move(o.tuples_);
    cursor_.store(o.cursor_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
    return *this;
  }

  /// Pre-parsed header entry (trace-driven workloads).
  /// \throws ConfigError if the pool already holds raw packets — a pool
  ///         serves one entry kind; mixing would silently drop traffic.
  void add(const net::FiveTuple& t) {
    if (!packets_.empty()) {
      throw ConfigError("TrafficPool: cannot mix tuples into a packet pool");
    }
    tuples_.push_back(t);
  }
  /// Raw packet entry (wire-format workloads).
  /// \throws ConfigError if the pool already holds pre-parsed tuples.
  void add(net::Packet p) {
    if (!tuples_.empty()) {
      throw ConfigError("TrafficPool: cannot mix packets into a tuple pool");
    }
    packets_.push_back(std::move(p));
  }

  /// Build a pool from a trace; \p materialize_packets synthesizes real
  /// IPv4 bytes for each header so the Parser element has work to do.
  [[nodiscard]] static TrafficPool from_trace(const net::Trace& trace,
                                              bool materialize_packets);

  [[nodiscard]] usize size() const {
    return packets_.empty() ? tuples_.size() : packets_.size();
  }

  /// Claim up to the batch's remaining capacity. Returns the number of
  /// entries added; 0 means the pool is exhausted (finite mode only —
  /// with \p loop the cursor wraps and this never returns 0).
  usize fill(net::PacketBatch& batch, bool loop);

  /// Rewind the claim cursor (e.g. between bench phases).
  void reset() { cursor_.store(0, std::memory_order_relaxed); }

  /// Entries claimed off a finite pool so far. The raw cursor
  /// overshoots the pool size (fill() claims a whole batch's worth and
  /// discovers exhaustion after), so clamp — the conservation ledger's
  /// "claimed" side (shed = size() - claimed()). Meaningless with loop.
  [[nodiscard]] u64 claimed() const {
    return std::min<u64>(cursor_.load(std::memory_order_relaxed), size());
  }

  /// Entry views for the flow-steering split (one of the two is always
  /// empty — a pool serves a single entry kind).
  [[nodiscard]] const std::vector<net::FiveTuple>& tuples() const {
    return tuples_;
  }
  [[nodiscard]] const std::vector<net::Packet>& packets() const {
    return packets_;
  }

 private:
  std::vector<net::Packet> packets_;
  std::vector<net::FiveTuple> tuples_;
  std::atomic<u64> cursor_{0};
};

/// Head element: refills the batch from the pool.
class PacketSource {
 public:
  PacketSource(TrafficPool* pool, bool loop) : pool_(pool), loop_(loop) {}

  /// Replace the batch's contents with the next burst. False, leaving
  /// the batch empty, once a finite pool ran dry (or the pool is empty):
  /// the end of this source's input.
  bool push_batch(net::PacketBatch& batch) {
    batch.clear();
    return pool_->fill(batch, loop_) != 0;
  }

 private:
  TrafficPool* pool_;
  bool loop_;
};

/// Phase 1: split raw bytes into the 5-tuple; non-IPv4 input takes the
/// drop path (resolved, unmatched, parse_error).
class Parser {
 public:
  explicit Parser(telemetry::WorkerTelemetry* tel = nullptr) : tel_(tel) {}

  void push_batch(net::PacketBatch& batch);

  [[nodiscard]] u64 parsed() const { return parsed_; }
  [[nodiscard]] u64 errors() const { return errors_; }

  /// This element's counter rows (see telemetry/counters.hpp) into
  /// \p out: a WorkerReport's CounterSet or the live block.
  void fill_counters(auto& out) const {
    out.set(telemetry::Counter::parse_errors, errors_);
  }

 private:
  telemetry::WorkerTelemetry* tel_;
  u64 parsed_ = 0;
  u64 errors_ = 0;
};

/// Per-worker exact-match fast path, and the holder of its batch's
/// rule-program snapshot. push_batch() acquires the current program
/// once and brings the cache to its version: it drops only the lines
/// the updates in between can change (RuleProgram::updates_since; see
/// core::FlowCache for the rules), and flushes whole when the snapshot
/// does not carry them all or one of them is a ConfigMod. It then serves
/// hits at that version. The classifier downstream takes the same
/// snapshot and fills its verdicts in at it, so a batch's hits and
/// lookups all see one version.
class FlowCacheElement {
 public:
  FlowCacheElement(const RuleProgramPublisher* programs, u32 depth,
                   const std::string& name = "flow_cache",
                   telemetry::WorkerTelemetry* tel = nullptr)
      : programs_(programs),
        cache_(name, depth == 0 ? 1 : depth),
        seen_version_(programs->version()),
        tel_(tel) {}

  void push_batch(net::PacketBatch& batch);

  /// Hand the snapshot this batch's hits were served at to the
  /// classifier: the cache keeps no reference past its batch, so the
  /// writer's grace wait never waits on it.
  [[nodiscard]] std::shared_ptr<const RuleProgram> take_snapshot() {
    return std::move(snap_);
  }

  /// Install the verdict of a full lookup made on the snapshot
  /// take_snapshot() handed out.
  void fill(const net::FiveTuple& t,
            const std::optional<core::RuleEntry>& verdict) {
    cache_.fill(t, verdict);
  }

  [[nodiscard]] const core::FlowCacheStats& stats() const {
    return cache_.stats();
  }

  /// This element's counter rows into \p out (see Parser).
  void fill_counters(auto& out) const {
    using telemetry::Counter;
    const core::FlowCacheStats& s = cache_.stats();
    out.set(Counter::cache_hits, s.hits);
    out.set(Counter::cache_misses, s.misses);
    out.set(Counter::cache_flushes, s.invalidations);
    out.set(Counter::cache_lines_invalidated, s.lines_invalidated);
  }

 private:
  /// Every cached verdict was made at seen_version_; bring them to
  /// \p snap's version. The cache's one invalidation site.
  void catch_up(const RuleProgram& snap);

  const RuleProgramPublisher* programs_;
  core::FlowCache cache_;
  u64 seen_version_ = 0;
  telemetry::WorkerTelemetry* tel_;
  std::shared_ptr<const RuleProgram> snap_;  ///< this batch's, until taken
};

}  // namespace pclass::dataplane

namespace pclass::core {

/// Execution paths perfbench's ungated core.path.* metrics are indexed
/// by (ClassifierElement::path_batches); only kScalarLoop is served.
/// Kept until a benchmark change drops those metrics.
enum class BatchPath : u8 { kScalarLoop = 0, kPhase2 = 1, kPhase2Memo = 2 };
inline constexpr usize kNumBatchPaths = 3;

}  // namespace pclass::core

namespace pclass::dataplane {

/// Phases 2-4: take the batch's snapshot from \p cache (which must have
/// run on the batch), or acquire the current RuleProgram when the chain
/// has no cache; classify() every unresolved packet on it, fill the
/// verdicts into the cache, stamp the batch with the snapshot's version
/// and drop the snapshot before returning.
class ClassifierElement {
 public:
  explicit ClassifierElement(const RuleProgramPublisher* programs,
                             FlowCacheElement* cache = nullptr,
                             telemetry::WorkerTelemetry* tel = nullptr)
      : programs_(programs), cache_(cache), tel_(tel) {}

  void push_batch(net::PacketBatch& batch);

  [[nodiscard]] u64 lookups() const { return lookups_; }
  /// Always 0; feeds perfbench's ungated core.probe_memo.* metrics
  /// until a benchmark change drops them.
  [[nodiscard]] u64 probe_memo_hits() const { return 0; }
  /// Always 0; feeds perfbench's ungated core.probe_memo.* metrics
  /// until a benchmark change drops them.
  [[nodiscard]] u64 probe_memo_invalidations() const { return 0; }
  /// Batches served (kScalarLoop; every other path 0); feeds
  /// perfbench's ungated core.path.* metrics until a benchmark change
  /// drops them.
  [[nodiscard]] u64 path_batches(core::BatchPath p) const {
    return p == core::BatchPath::kScalarLoop ? batches_ : 0;
  }
  /// Lowest/highest snapshot version observed; both 0 when the worker
  /// never processed a batch (the sentinel must not leak into reports).
  [[nodiscard]] u64 min_version() const {
    return seen_any_ ? min_version_ : 0;
  }
  [[nodiscard]] bool version_monotonic() const { return monotonic_; }

  /// This element's counter rows into \p out (see Parser).
  void fill_counters(auto& out) const {
    using telemetry::Counter;
    out.set(Counter::classifier_lookups, lookups_);
    out.set(Counter::snapshot_version, max_version_);
    out.set(Counter::update_visibility_samples, vis_samples_);
    out.set(Counter::update_visibility_total_ns, vis_total_ns_);
    out.set(Counter::update_visibility_max_ns, vis_max_ns_);
  }

 private:
  /// Record the update-visibility sample when the observed version
  /// advanced, publish the running totals into the live counter block
  /// and push this batch's span event into the trace ring. Only called
  /// when telemetry is attached.
  void publish_telemetry(const net::PacketBatch& batch, u64 version,
                         u64 t_start_ns, bool version_advanced, u32 lookups);

  const RuleProgramPublisher* programs_;
  FlowCacheElement* cache_;
  telemetry::WorkerTelemetry* tel_;
  u64 lookups_ = 0;
  u64 batches_ = 0;  ///< batches with at least one lookup
  u64 min_version_ = std::numeric_limits<u64>::max();
  u64 max_version_ = 0;
  bool monotonic_ = true;
  bool seen_any_ = false;
  /// Update-visibility latency (publish -> this worker observing the
  /// new version): observation count, summed ns and worst case. Only
  /// measured with telemetry attached; zero when the program never
  /// changed mid-run.
  u64 vis_samples_ = 0;
  u64 vis_total_ns_ = 0;
  u64 vis_max_ns_ = 0;
};

/// Tail element: verdict accounting and latency measurement. With a
/// \p capture vector attached it also records every packet's verdict in
/// arrival order (the sharded differential fuzzer's input) — finite
/// runs only; the engine rejects capture in loop mode.
class ActionSink {
 public:
  explicit ActionSink(telemetry::WorkerTelemetry* tel = nullptr,
                      std::vector<CapturedVerdict>* capture = nullptr)
      : tel_(tel), capture_(capture) {}

  void push_batch(net::PacketBatch& batch);

  [[nodiscard]] u64 packets() const { return packets_; }
  [[nodiscard]] u64 matched() const { return matched_; }
  [[nodiscard]] u64 dropped() const { return dropped_; }
  [[nodiscard]] const LatencyHistogram& latency() const { return latency_; }

  /// This element's counter rows into \p out (see Parser).
  void fill_counters(auto& out) const {
    using telemetry::Counter;
    out.set(Counter::packets, packets_);
    out.set(Counter::batches, batches_);
    out.set(Counter::matched, matched_);
    out.set(Counter::dropped, dropped_);
    out.set(Counter::memory_accesses, memory_accesses_);
  }

 private:
  telemetry::WorkerTelemetry* tel_;
  std::vector<CapturedVerdict>* capture_;
  u64 packets_ = 0;
  u64 matched_ = 0;
  u64 dropped_ = 0;
  u64 batches_ = 0;
  /// Modelled block-memory reads of this worker's lookups, summed from
  /// the per-packet CycleRecorder charges.
  u64 memory_accesses_ = 0;
  LatencyHistogram latency_;
};

/// One batch through the chain, each element called in order: \p source
/// refills \p batch, then the parser, the flow cache (when \p cache is
/// non-null), the classifier and the sink annotate it. Returns false,
/// calling nothing after the source, once the source has run dry.
/// Without a \p source, \p batch goes through as the caller filled it.
bool push_chain(net::PacketBatch& batch, PacketSource* source,
                Parser& parser, FlowCacheElement* cache,
                ClassifierElement& classifier, ActionSink& sink);

}  // namespace pclass::dataplane
