/// \file counters.hpp
/// The counter registry: four tables, one owner each. A pipeline
/// worker's counters are PCLASS_WORKER_COUNTERS; the engine's (the
/// supervisor rollup, the conservation ledger, trace-span loss)
/// PCLASS_ENGINE_COUNTERS; the rule-program publisher's
/// PCLASS_PUBLISHER_COUNTERS; the control socket's update and
/// visibility rollup PCLASS_SOCKET_COUNTERS. Every surface that shows
/// counters — the live block, WorkerReport, EngineReport, the sampler's
/// interval rows, `read stats`, `read metrics`, `subscribe` rows, the
/// scenario and `pclass_serve` reports and the CLIs' Prometheus dumps —
/// loops over the tables instead of naming fields.
///
/// Adding a counter: add one row here, then one `out.set(...)` line in
/// the owner's `fill_counters` (an engine row: one `counters_.add(...)`
/// or `set(...)` in the Engine). Every surface picks it up under the
/// row's name. tools/check_report.py pins the row names (COUNTER_ROWS,
/// ENGINE_ROWS, PUBLISHER_ROWS, SOCKET_ROWS), so a row that is renamed
/// or dropped here fails CI's report gates.
#pragma once

#include <algorithm>
#include <array>
#include <span>
#include <string_view>

#include "common/types.hpp"

namespace pclass::telemetry {

/// Prometheus type of a row: a running total, or a point-in-time value.
enum class CounterKind : u8 { kCounter, kGauge };

/// How two rows (two shards, two workers, two intervals) combine.
enum class CounterMerge : u8 { kSum, kMax };

// X(name, kind, merge, unit, help)
#define PCLASS_WORKER_COUNTERS(X)                                           \
  X(packets, kCounter, kSum, "packets", "Packets sunk.")                    \
  X(batches, kCounter, kSum, "batches", "Batches processed.")               \
  X(matched, kCounter, kSum, "packets", "Packets matched by a rule.")       \
  X(dropped, kCounter, kSum, "packets", "Packets dropped.")                 \
  X(parse_errors, kCounter, kSum, "packets", "Packets failing the parser.") \
  X(cache_hits, kCounter, kSum, "packets", "Flow-cache hits.")              \
  X(cache_misses, kCounter, kSum, "packets", "Flow-cache misses.")          \
  X(cache_flushes, kCounter, kSum, "flushes",                               \
    "Whole flow-cache flushes (updates the per-line scan cannot cover).")   \
  X(cache_lines_invalidated, kCounter, kSum, "lines",                       \
    "Flow-cache lines dropped by per-update invalidation.")                 \
  X(classifier_lookups, kCounter, kSum, "lookups", "Full lookups.")         \
  X(memory_accesses, kCounter, kSum, "reads", "Modelled memory reads.")     \
  X(snapshot_version, kGauge, kMax, "version",                              \
    "Highest rule-program version classified against.")                     \
  X(update_visibility_samples, kCounter, kSum, "updates",                   \
    "Published versions observed (update-visibility samples).")             \
  X(update_visibility_total_ns, kCounter, kSum, "ns",                       \
    "Summed publish-to-visible latency.")                                   \
  X(update_visibility_max_ns, kGauge, kMax, "ns",                           \
    "Worst publish-to-visible latency.")

// X(name, kind, merge, unit, help)
#define PCLASS_ENGINE_COUNTERS(X)                                          \
  X(worker_restarts, kCounter, kSum, "restarts",                           \
    "Dead workers respawned by the watchdog.")                             \
  X(stall_detections, kCounter, kSum, "stalls",                            \
    "Heartbeat-stall episodes the watchdog observed.")                     \
  X(shards_reassigned, kCounter, kSum, "shards",                           \
    "Shards taken over from permanently failed workers.")                  \
  X(workers_failed, kGauge, kSum, "workers",                               \
    "Workers permanently failed (restart budget spent).")                  \
  X(offered_packets, kCounter, kSum, "packets",                            \
    "Packets a finite run was asked to deliver.")                          \
  X(delivered_packets, kCounter, kSum, "packets",                          \
    "Offered packets that reached an ActionSink.")                         \
  X(shed_packets, kCounter, kSum, "packets",                               \
    "Offered packets never claimed (owner died, no survivor).")            \
  X(lost_packets, kCounter, kSum, "packets",                               \
    "Claimed packets lost in flight inside a dead worker.")                \
  X(trace_events_dropped, kCounter, kSum, "events",                        \
    "Trace-ring events lost to overwrite or torn reads.")                  \
  X(trace_events_truncated, kCounter, kSum, "events",                      \
    "Drained trace spans past the retention cap.")

// X(name, kind, merge, unit, help)
#define PCLASS_PUBLISHER_COUNTERS(X)                                       \
  X(version, kGauge, kMax, "version", "Published rule-program version.")   \
  X(rules, kGauge, kMax, "rules", "Rules in the published snapshot.")      \
  X(updates_applied, kCounter, kSum, "updates", "Updates accepted.")       \
  X(publishes, kCounter, kSum, "publishes", "Snapshot swaps.")             \
  X(grace_spins, kCounter, kSum, "yields", "Yields waiting on readers.")   \
  X(standby_copies, kCounter, kSum, "copies",                              \
    "Standbys levelled by copying the published replica.")

// X(name, kind, merge, unit, help). An update's latency runs from its
// command's parse (cmd) or its snapshot swap (publish) to the first, or
// every, worker on its version; a ~0.2 ms poller measures it, so each
// is an upper bound tight to that grain.
#define PCLASS_SOCKET_COUNTERS(X)                                          \
  X(updates_accepted, kCounter, kSum, "updates", "Socket updates.")        \
  X(visibility_samples, kCounter, kSum, "updates", "Resolved updates.")    \
  X(visibility_unresolved, kCounter, kSum, "updates", "Unresolved at drain.") \
  X(visibility_pending, kGauge, kSum, "updates", "Updates in flight.")     \
  X(cmd_to_first_total_ns, kCounter, kSum, "ns", "Summed cmd-to-first.")   \
  X(cmd_to_first_max_ns, kGauge, kMax, "ns", "Worst cmd-to-first.")        \
  X(cmd_to_all_total_ns, kCounter, kSum, "ns", "Summed cmd-to-all.")       \
  X(cmd_to_all_max_ns, kGauge, kMax, "ns", "Worst cmd-to-all.")            \
  X(publish_to_first_total_ns, kCounter, kSum, "ns", "Summed pub-to-first.") \
  X(publish_to_first_max_ns, kGauge, kMax, "ns", "Worst pub-to-first.")

#define PCLASS_COUNTER_ENUM(name, kind, merge, unit, help) name,
/// One enumerator per worker row, in table order.
enum class Counter : usize { PCLASS_WORKER_COUNTERS(PCLASS_COUNTER_ENUM) };
/// One enumerator per engine row, in table order.
enum class EngineCounter : usize {
  PCLASS_ENGINE_COUNTERS(PCLASS_COUNTER_ENUM)
};
/// One enumerator per publisher row, in table order.
enum class PublisherCounter : usize {
  PCLASS_PUBLISHER_COUNTERS(PCLASS_COUNTER_ENUM)
};
/// One enumerator per control-socket row, in table order.
enum class SocketCounter : usize {
  PCLASS_SOCKET_COUNTERS(PCLASS_COUNTER_ENUM)
};
#undef PCLASS_COUNTER_ENUM

struct CounterDef {
  std::string_view name;
  CounterKind kind;
  CounterMerge merge;
  std::string_view unit;
  std::string_view help;
};

#define PCLASS_COUNTER_DEF(name, kind, merge, unit, help)                   \
  CounterDef{#name, CounterKind::kind, CounterMerge::merge, unit, help},
inline constexpr std::array kCounters = {
    PCLASS_WORKER_COUNTERS(PCLASS_COUNTER_DEF)};
inline constexpr std::array kEngineCounters = {
    PCLASS_ENGINE_COUNTERS(PCLASS_COUNTER_DEF)};
inline constexpr std::array kPublisherCounters = {
    PCLASS_PUBLISHER_COUNTERS(PCLASS_COUNTER_DEF)};
inline constexpr std::array kSocketCounters = {
    PCLASS_SOCKET_COUNTERS(PCLASS_COUNTER_DEF)};
#undef PCLASS_COUNTER_DEF

inline constexpr usize kNumCounters = kCounters.size();

/// Publish-to-visible latency of rule updates, from the
/// update_visibility_* rows.
struct UpdateVisibility {
  u64 samples = 0;
  double mean_ns = 0;
  u64 max_ns = 0;
};

/// One value per row of the table \p kTable (enumerated by \p Id):
/// a worker's totals, a merged rollup, one sampler interval, the
/// engine-level rows, the publisher's or the control socket's.
template <class Id, const auto& kTable>
struct BasicCounterSet {
  using Row = Id;
  static constexpr std::span<const CounterDef> kDefs{kTable};
  static constexpr usize kSize = kTable.size();

  std::array<u64, kSize> v{};

  [[nodiscard]] u64& operator[](Id c) { return v[static_cast<usize>(c)]; }
  [[nodiscard]] u64 operator[](Id c) const {
    return v[static_cast<usize>(c)];
  }

  /// Fill target of the elements' fill_counters().
  void set(Id c, u64 x) { (*this)[c] = x; }

  /// Fold \p o in, row by row, by each row's merge rule.
  void merge(const BasicCounterSet& o) {
    for (usize i = 0; i < v.size(); ++i) {
      v[i] = kTable[i].merge == CounterMerge::kSum ? v[i] + o.v[i]
                                                   : std::max(v[i], o.v[i]);
    }
  }

  /// The interval since \p prev: sum rows difference, max rows keep
  /// their current value. Merging the intervals of a run gives back its
  /// totals exactly.
  [[nodiscard]] BasicCounterSet minus(const BasicCounterSet& prev) const {
    BasicCounterSet d = *this;
    for (usize i = 0; i < v.size(); ++i) {
      if (kTable[i].merge == CounterMerge::kSum) d.v[i] -= prev.v[i];
    }
    return d;
  }

  /// Flow-cache hits over cache lookups (0 when there were none).
  [[nodiscard]] double cache_hit_rate() const {
    const u64 hits = (*this)[Counter::cache_hits];
    const u64 total = hits + (*this)[Counter::cache_misses];
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }

  [[nodiscard]] UpdateVisibility update_visibility() const {
    const u64 n = (*this)[Counter::update_visibility_samples];
    const u64 total_ns = (*this)[Counter::update_visibility_total_ns];
    return {n,
            n == 0 ? 0.0
                   : static_cast<double>(total_ns) / static_cast<double>(n),
            (*this)[Counter::update_visibility_max_ns]};
  }

  bool operator==(const BasicCounterSet&) const = default;
};

using CounterSet = BasicCounterSet<Counter, kCounters>;
using EngineCounterSet = BasicCounterSet<EngineCounter, kEngineCounters>;
using PublisherCounterSet =
    BasicCounterSet<PublisherCounter, kPublisherCounters>;
using SocketCounterSet = BasicCounterSet<SocketCounter, kSocketCounters>;

/// Write every row as `"name": value` into the open JSON object of \p w
/// (a workload::JsonWriter).
template <class JsonWriter, class Set>
void write_counters(JsonWriter& w, const Set& c) {
  for (usize i = 0; i < c.v.size(); ++i) {
    w.key(Set::kDefs[i].name).value(c.v[i]);
  }
}

/// Write `"key": {every row}` from \p c.
template <class JsonWriter, class Set>
void write_counter_object(JsonWriter& w, std::string_view key, const Set& c) {
  w.key(key).begin_object();
  write_counters(w, c);
  w.end_object();
}

/// Write `"update_visibility": {samples, mean_ns, max_ns}` from \p c.
template <class JsonWriter>
void write_update_visibility(JsonWriter& w, const CounterSet& c) {
  const UpdateVisibility v = c.update_visibility();
  w.key("update_visibility").begin_object();
  w.key("samples").value(v.samples);
  w.key("mean_ns").value(v.mean_ns);
  w.key("max_ns").value(v.max_ns);
  w.end_object();
}

/// Write a table itself as `"name": {"kind", "merge", "unit"}`, so a
/// report says how its rows combine.
template <class JsonWriter>
void write_counter_table(JsonWriter& w, std::span<const CounterDef> table) {
  w.begin_object();
  for (const CounterDef& d : table) {
    w.key(d.name).begin_object();
    w.key("kind").value(d.kind == CounterKind::kCounter ? "counter" : "gauge");
    w.key("merge").value(d.merge == CounterMerge::kSum ? "sum" : "max");
    w.key("unit").value(d.unit);
    w.end_object();
  }
  w.end_object();
}

}  // namespace pclass::telemetry
