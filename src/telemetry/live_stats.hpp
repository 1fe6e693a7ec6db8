/// \file live_stats.hpp
/// Live counters: the mid-run-readable mirror of a counter set (one
/// atomic per row of a telemetry/counters.hpp table) — per worker for
/// the worker rows, once per Engine for the engine rows.
///
/// Ownership/ordering model: every counter is a single-writer relaxed
/// atomic — the owning worker publishes its running totals once per
/// batch with a relaxed store (a plain mov, no lock-prefixed RMW, no
/// per-packet atomics), and the StatsSampler reads them
/// relaxed from its own thread. Because the worker publishes *totals*
/// (not deltas), the sampler's interval deltas always sum exactly to
/// the end-of-run totals — the invariant the telemetry tests and the CI
/// gate assert. Each WorkerTelemetry is cache-line aligned so two
/// workers never share a line.
#pragma once

#include <array>
#include <atomic>

#include "dataplane/stats.hpp"
#include "telemetry/counters.hpp"
#include "telemetry/trace_ring.hpp"

namespace pclass::telemetry {

/// Relaxed read/modify helpers for the single-writer counters.
[[nodiscard]] inline u64 counter_load(const std::atomic<u64>& a) {
  return a.load(std::memory_order_relaxed);
}
inline void counter_store(std::atomic<u64>& a, u64 v) {
  a.store(v, std::memory_order_relaxed);
}
inline void counter_add(std::atomic<u64>& a, u64 d) {
  a.store(a.load(std::memory_order_relaxed) + d, std::memory_order_relaxed);
}

/// Mid-run-readable latency histogram: same bucketing as the
/// end-of-run dataplane::LatencyHistogram, but each bucket is a
/// single-writer relaxed atomic so the sampler can difference interval
/// snapshots for live p50/p99.
class AtomicHistogram {
 public:
  static constexpr usize kBuckets = dataplane::LatencyHistogram::kBuckets;

  void record(u64 v) {
    counter_add(buckets_[dataplane::LatencyHistogram::bucket_of(v)], 1);
  }

  [[nodiscard]] std::array<u64, kBuckets> snapshot() const {
    std::array<u64, kBuckets> out;
    for (usize i = 0; i < kBuckets; ++i) out[i] = counter_load(buckets_[i]);
    return out;
  }

 private:
  std::array<std::atomic<u64>, kBuckets> buckets_{};
};

/// One relaxed atomic per row of the table of \p Set, each a running
/// total.
template <class Set>
struct LiveCounters {
  using Row = typename Set::Row;
  std::array<std::atomic<u64>, Set::kSize> counters{};

  /// Fill target of the elements' fill_counters(): store one row.
  void set(Row c, u64 v) { counter_store(counters[index(c)], v); }
  void add(Row c, u64 n) {
    counters[index(c)].fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] u64 get(Row c) const {
    return counter_load(counters[index(c)]);
  }
  void clear() {
    for (auto& a : counters) counter_store(a, 0);
  }
  /// Relaxed copy of every row.
  [[nodiscard]] Set snapshot() const {
    Set out;
    for (usize i = 0; i < Set::kSize; ++i) {
      out.v[i] = counter_load(counters[i]);
    }
    return out;
  }
  static constexpr usize index(Row c) { return static_cast<usize>(c); }
};

/// One worker's live counter block: the worker rows, stored by the
/// worker's pipeline elements through their fill_counters(), and the
/// latency histogram.
struct WorkerLive : LiveCounters<CounterSet> {
  AtomicHistogram latency;
};

/// Coherent-enough merge of the workers' WorkerLive blocks, taken with
/// relaxed loads. Used by the sampler for interval differencing.
struct LiveSnapshot {
  CounterSet counters;
  u64 min_version = 0;  ///< lowest nonzero snapshot_version (0 = none)
  std::array<u64, AtomicHistogram::kBuckets> latency_buckets{};

  /// Merge one worker's live block into this snapshot.
  void add(const WorkerLive& w) {
    const CounterSet c = w.snapshot();
    counters.merge(c);
    const u64 v = c[Counter::snapshot_version];
    if (v != 0) min_version = min_version == 0 ? v : std::min(min_version, v);
    const auto b = w.latency.snapshot();
    for (usize i = 0; i < b.size(); ++i) latency_buckets[i] += b[i];
  }
};

/// Everything telemetry-related one worker owns: its live counter block
/// and its trace ring. Cache-line aligned; allocated per worker by the
/// Engine, handed to the pipeline elements as a raw pointer (nullptr =
/// telemetry off, the overhead-gate baseline).
struct alignas(64) WorkerTelemetry {
  explicit WorkerTelemetry(u32 worker_id,
                           usize ring_capacity = TraceRing::kDefaultCapacity)
      : worker(worker_id), ring(ring_capacity) {}

  u32 worker;
  WorkerLive live;
  TraceRing ring;
};

}  // namespace pclass::telemetry
