/// \file counters.hpp
/// The per-worker counter registry: every counter a pipeline worker
/// keeps is one row of PCLASS_WORKER_COUNTERS, and every surface that
/// shows counters — the live block, WorkerReport, the sampler's
/// interval rows, `read stats`, `read metrics`, `subscribe` rows, the
/// scenario and `pclass_serve` reports and the CLIs' Prometheus dumps —
/// loops over this table instead of naming fields.
///
/// Adding a counter: add one row here, then one `out.set(...)` line in
/// the `fill_counters` of the element that owns the value. Every
/// surface picks it up under the row's name. tools/check_report.py
/// pins the row names (COUNTER_ROWS), so a row that is renamed or
/// dropped here fails CI's report gates.
#pragma once

#include <algorithm>
#include <array>
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

/// One enumerator per row, in table order.
enum class Counter : usize {
#define PCLASS_COUNTER_ENUM(name, kind, merge, unit, help) name,
  PCLASS_WORKER_COUNTERS(PCLASS_COUNTER_ENUM)
#undef PCLASS_COUNTER_ENUM
};

struct CounterDef {
  std::string_view name;
  CounterKind kind;
  CounterMerge merge;
  std::string_view unit;
  std::string_view help;
};

inline constexpr std::array kCounters = {
#define PCLASS_COUNTER_DEF(name, kind, merge, unit, help) \
  CounterDef{#name, CounterKind::kind, CounterMerge::merge, unit, help},
    PCLASS_WORKER_COUNTERS(PCLASS_COUNTER_DEF)
#undef PCLASS_COUNTER_DEF
};

inline constexpr usize kNumCounters = kCounters.size();

[[nodiscard]] constexpr usize index_of(Counter c) {
  return static_cast<usize>(c);
}

/// Publish-to-visible latency of rule updates, from the
/// update_visibility_* rows.
struct UpdateVisibility {
  u64 samples = 0;
  double mean_ns = 0;
  u64 max_ns = 0;
};

/// One value per registry row: a worker's totals, a merged rollup or
/// one sampler interval.
struct CounterSet {
  std::array<u64, kNumCounters> v{};

  [[nodiscard]] u64& operator[](Counter c) { return v[index_of(c)]; }
  [[nodiscard]] u64 operator[](Counter c) const { return v[index_of(c)]; }

  /// Fill target of the elements' fill_counters().
  void set(Counter c, u64 x) { v[index_of(c)] = x; }

  /// Fold \p o in, row by row, by each row's merge rule.
  void merge(const CounterSet& o) {
    for (usize i = 0; i < kNumCounters; ++i) {
      v[i] = kCounters[i].merge == CounterMerge::kSum ? v[i] + o.v[i]
                                                      : std::max(v[i], o.v[i]);
    }
  }

  /// The interval since \p prev: sum rows difference, max rows keep
  /// their current value. Merging the intervals of a run gives back its
  /// totals exactly.
  [[nodiscard]] CounterSet minus(const CounterSet& prev) const {
    CounterSet d = *this;
    for (usize i = 0; i < kNumCounters; ++i) {
      if (kCounters[i].merge == CounterMerge::kSum) d.v[i] -= prev.v[i];
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

  bool operator==(const CounterSet&) const = default;
};

/// Write every row as `"name": value` into the open JSON object of \p w
/// (a workload::JsonWriter).
template <class JsonWriter>
void write_counters(JsonWriter& w, const CounterSet& c) {
  for (usize i = 0; i < kNumCounters; ++i) {
    w.key(kCounters[i].name).value(c.v[i]);
  }
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

/// Write the table itself as `"name": {"kind", "merge", "unit"}`, so a
/// report says how its counter rows combine.
template <class JsonWriter>
void write_counter_table(JsonWriter& w) {
  w.begin_object();
  for (const CounterDef& d : kCounters) {
    w.key(d.name).begin_object();
    w.key("kind").value(d.kind == CounterKind::kCounter ? "counter" : "gauge");
    w.key("merge").value(d.merge == CounterMerge::kSum ? "sum" : "max");
    w.key("unit").value(d.unit);
    w.end_object();
  }
  w.end_object();
}

}  // namespace pclass::telemetry
