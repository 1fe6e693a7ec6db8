/// \file stats.hpp
/// Per-worker measurement for the dataplane runtime: a cheap log-scale
/// latency histogram (lookup cycles per packet) with percentile
/// extraction, and the per-worker / engine-wide report structs the
/// benches and the CLI print.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/rule_filter.hpp"
#include "net/five_tuple.hpp"
#include "telemetry/counters.hpp"
#include "telemetry/sample.hpp"
#include "telemetry/trace_ring.hpp"

namespace pclass::dataplane {

/// One packet's verdict as the ActionSink saw it, in arrival order
/// (EngineConfig::capture_verdicts). `version` is the rule-program
/// snapshot the batch was classified against, which is what lets a
/// dataplane::VersionedOracle judge every verdict against the rules of
/// exactly that version.
struct CapturedVerdict {
  net::FiveTuple tuple{};
  bool parse_error = false;
  std::optional<core::RuleEntry> match;  ///< nullopt on a miss
  u64 version = 0;        ///< batch's snapshot version
  u64 cycles = 0;         ///< modelled lookup cycles for this packet
  u64 memory_accesses = 0;
};

/// Log-linear histogram of per-packet lookup latency (in modelled
/// device cycles): four sub-buckets per power of two (HDR-histogram
/// style, 2 mantissa bits), so percentiles resolve to within ~12.5%
/// instead of the 2x a pure log2 bucketing gives — fine enough that a
/// 25% p99 shift is visible in the scenario reports. Constant memory,
/// O(1) record.
class LatencyHistogram {
 public:
  static constexpr usize kBuckets = 256;

  void record(u64 cycles) {
    ++buckets_[bucket_of(cycles)];
    ++count_;
    sum_ += cycles;
    min_ = count_ == 1 ? cycles : std::min(min_, cycles);
    max_ = std::max(max_, cycles);
  }

  void merge(const LatencyHistogram& o) {
    for (usize i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
    if (o.count_ > 0) {
      min_ = count_ == 0 ? o.min_ : std::min(min_, o.min_);
      max_ = std::max(max_, o.max_);
    }
    count_ += o.count_;
    sum_ += o.sum_;
  }

  [[nodiscard]] u64 count() const { return count_; }
  [[nodiscard]] u64 min() const { return count_ == 0 ? 0 : min_; }
  [[nodiscard]] u64 max() const { return max_; }
  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) /
                             static_cast<double>(count_);
  }

  /// Value at percentile \p p (0..100), linearly interpolated within
  /// the winning bucket (the target rank's midpoint share of the bucket
  /// width), clamped to the observed min/max so a single sample reports
  /// itself exactly and no percentile escapes the data range.
  [[nodiscard]] u64 percentile(double p) const {
    if (count_ == 0) return 0;
    const double v = percentile_from(buckets_, count_, p);
    return std::clamp(static_cast<u64>(std::llround(v)), min_, max_);
  }

  // Log-linear indexing: values < 4 get their own bucket; above that,
  // the exponent selects a group of 4 sub-buckets addressed by the two
  // bits after the leading one. Public so telemetry's AtomicHistogram
  // shares the exact bucketing (interval snapshots stay mergeable with
  // end-of-run histograms).
  [[nodiscard]] static usize bucket_of(u64 v) {
    if (v < 4) return static_cast<usize>(v);
    const unsigned e = static_cast<unsigned>(std::bit_width(v)) - 1;  // >= 2
    const u64 sub = (v >> (e - 2)) & 3;
    return std::min<usize>(4 * static_cast<usize>(e - 2) +
                               static_cast<usize>(sub) + 4,
                           kBuckets - 1);
  }

  /// Smallest value mapping to bucket \p i (inverse of bucket_of:
  /// bucket_of(bucket_floor(i)) == i for every reachable bucket).
  [[nodiscard]] static u64 bucket_floor(usize i) {
    if (i < 4) return static_cast<u64>(i);
    const unsigned e = static_cast<unsigned>((i - 4) / 4) + 2;
    const u64 sub = (i - 4) % 4;
    return (u64{4} + sub) << (e - 2);
  }

  /// Interpolated percentile over raw bucket counts (\p count samples):
  /// the target rank is placed at its midpoint share of the winning
  /// bucket's [floor, next-floor) width. Shared by instance percentiles
  /// and the StatsSampler's interval-delta percentiles; unclamped (the
  /// caller may not know min/max), monotonic in \p p.
  [[nodiscard]] static double percentile_from(
      std::span<const u64> buckets, u64 count, double p) {
    if (count == 0) return 0.0;
    const double target =
        std::clamp(p / 100.0 * static_cast<double>(count), 1.0,
                   static_cast<double>(count));
    u64 seen = 0;
    for (usize i = 0; i < buckets.size(); ++i) {
      const u64 c = buckets[i];
      if (c == 0) continue;
      if (static_cast<double>(seen + c) >= target) {
        const u64 lo = bucket_floor(i);
        const u64 hi =
            i + 1 < kBuckets ? bucket_floor(i + 1) : lo;  // overflow: floor
        // Midpoint convention: the k-th of c samples in the bucket sits
        // at (k - 0.5)/c of the width.
        const double frac = std::clamp(
            (target - static_cast<double>(seen) - 0.5) / static_cast<double>(c),
            0.0, 1.0);
        return static_cast<double>(lo) +
               frac * static_cast<double>(hi - lo);
      }
      seen += c;
    }
    return static_cast<double>(bucket_floor(kBuckets - 1));
  }

 private:
  std::array<u64, kBuckets> buckets_{};
  u64 count_ = 0;
  u64 sum_ = 0;
  u64 min_ = 0;
  u64 max_ = 0;
};

/// One worker's end-of-run measurement.
struct WorkerReport {
  usize worker = 0;
  /// Every registry row (telemetry/counters.hpp), filled by the
  /// shard's elements through the same fill_counters() that publishes
  /// the live block.
  telemetry::CounterSet counters;
  /// Lowest rule-program version observed (the highest is
  /// counters[snapshot_version]).
  u64 min_version = 0;
  bool version_monotonic = true;  ///< versions never went backwards
  LatencyHistogram latency;       ///< per-packet lookup cycles
  double wall_seconds = 0;
  /// Non-empty if the worker died on an exception (exceptions must not
  /// escape a worker thread — that would std::terminate the process).
  /// Under the supervisor, healed workers (died but restarted, run
  /// concluded) report empty here — their death messages live in
  /// EngineReport::error_log; only a permanent failure that actually
  /// lost traffic (undrained shards with no survivor) surfaces here.
  std::string error;

  [[nodiscard]] double mpps() const {
    return wall_seconds <= 0.0
               ? 0.0
               : static_cast<double>(counters[telemetry::Counter::packets]) /
                     1e6 / wall_seconds;
  }
};

/// Merge \p rows into one row labelled \p worker: counters by their
/// merge rules, the version range over the rows that saw a batch, the
/// latency histograms and the first error. A worker's row merges the
/// shards it drove; the scenario totals merge the worker rows.
[[nodiscard]] inline WorkerReport merge_reports(
    usize worker, std::span<const WorkerReport> rows) {
  WorkerReport m;
  m.worker = worker;
  bool first_version = true;
  for (const WorkerReport& r : rows) {
    m.counters.merge(r.counters);
    if (r.counters[telemetry::Counter::packets] > 0 ||
        r.counters[telemetry::Counter::snapshot_version] > 0 ||
        r.min_version > 0) {
      m.min_version = first_version ? r.min_version
                                    : std::min(m.min_version, r.min_version);
      first_version = false;
    }
    m.version_monotonic = m.version_monotonic && r.version_monotonic;
    m.latency.merge(r.latency);
    m.wall_seconds = std::max(m.wall_seconds, r.wall_seconds);
    if (m.error.empty()) m.error = r.error;
  }
  return m;
}

/// Write \p shards as the reports' `shards` array: per shard its index,
/// every counter row, its lowest version and p50/p99 lookup cycles.
template <class JsonWriter>
void write_shard_rows(JsonWriter& j, std::span<const WorkerReport> shards) {
  j.key("shards").begin_array();
  for (const WorkerReport& s : shards) {
    j.begin_object();
    j.key("shard").value(static_cast<u64>(s.worker));
    telemetry::write_counters(j, s.counters);
    j.key("min_version").value(s.min_version);
    j.key("p50_cycles").value(s.latency.percentile(50));
    j.key("p99_cycles").value(s.latency.percentile(99));
    j.end_object();
  }
  j.end_array();
}

/// One worker death, with enough context to tell a healed incarnation
/// from a permanent failure (EngineReport::error_log — the "surface ALL
/// worker errors" view; first_error() stays the compat single-error
/// view).
struct WorkerErrorDetail {
  usize worker = 0;
  /// Restarts completed before this death (0 = first incarnation).
  u64 restarts = 0;
  /// True when this death ended the worker for good (no retry left, or
  /// the supervisor was off).
  bool permanent = false;
  std::string message;

  /// "worker N [restarts=R, healed|permanent]: message" — how every
  /// report and log line shows a death.
  [[nodiscard]] std::string line() const {
    return "worker " + std::to_string(worker) + " [restarts=" +
           std::to_string(restarts) +
           (permanent ? ", permanent" : ", healed") + "]: " + message;
  }
};

/// Whole-engine rollup.
///
/// `workers` holds one *merged* row per worker thread, summing the
/// disjoint shards that thread drove (its own, plus any it took over);
/// `shards` holds the raw per-shard rows. Both are double-count-free:
/// merge_reports(0, workers) is the whole-engine row.
struct EngineReport {
  std::vector<WorkerReport> workers;
  /// Per-shard raw rows (WorkerReport::worker = shard index).
  /// Invariant: sum(shards) == sum(workers).
  std::vector<WorkerReport> shards;
  /// Per-shard verdict streams, arrival order; filled when
  /// EngineConfig::capture_verdicts is set.
  std::vector<std::vector<CapturedVerdict>> captured;
  double wall_seconds = 0;
  /// The StatsSampler's interval series (empty when
  /// EngineConfig::stats_interval_ms == 0). Invariant: per-counter
  /// interval deltas sum to the end-of-run totals.
  std::vector<telemetry::StatsSample> timeseries;
  /// Drained TraceRing events (EngineConfig::collect_trace).
  std::vector<telemetry::TraceEvent> trace_events;
  /// Every engine row (telemetry/counters.hpp): the supervisor rollup,
  /// the conservation ledger and trace-span loss.
  telemetry::EngineCounterSet counters;
  /// True when the engine computed the ledger rows (finite pool;
  /// loop-mode runs have no "offered" total to conserve against).
  bool conservation_checked = false;
  /// Every worker death in order of (worker, incarnation) — healed and
  /// permanent alike. Empty when nothing died.
  std::vector<WorkerErrorDetail> error_log;

  /// The conservation invariant: every offered packet is delivered,
  /// shed, or accounted lost in flight — exactly. Vacuously true when
  /// the ledger was not computed (loop mode).
  [[nodiscard]] bool conserved() const {
    using telemetry::EngineCounter;
    const auto& c = counters;
    return !conservation_checked ||
           c[EngineCounter::delivered_packets] +
                   c[EngineCounter::shed_packets] +
                   c[EngineCounter::lost_packets] ==
               c[EngineCounter::offered_packets];
  }

  [[nodiscard]] u64 packets() const {
    return merge_reports(0, workers).counters[telemetry::Counter::packets];
  }
  [[nodiscard]] u64 matched() const {
    return merge_reports(0, workers).counters[telemetry::Counter::matched];
  }
  [[nodiscard]] double aggregate_mpps() const {
    return wall_seconds <= 0.0 ? 0.0
                               : static_cast<double>(packets()) / 1e6 /
                                     wall_seconds;
  }
  /// First worker error, or empty when every worker ran to completion.
  [[nodiscard]] std::string first_error() const {
    for (const auto& w : workers) {
      if (!w.error.empty()) return w.error;
    }
    return {};
  }
};

}  // namespace pclass::dataplane
