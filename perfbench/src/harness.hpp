/// \file harness.hpp
/// The benchmark's own arithmetic, kept apart from the measurement loop
/// so tests/test_harness.cpp can check it on synthetic inputs:
///
///   * timing summaries: median plus the highest percentile that still
///     has at least ten samples beyond it, with the sample count;
///   * the error tally behind `error_rate` and the result line's
///     attempted/failed counts;
///   * update visibility, from a timeline of update starts and batch
///     version stamps;
///   * a bounded, deterministic sampler that picks which batches the
///     oracle checks;
///   * spans and per-layer self time for the traced run.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using u32 = std::uint32_t;
using u64 = std::uint64_t;

// ---- timing summaries ------------------------------------------------------

/// Nearest-rank percentile of an ascending-sorted sample: the value at
/// rank ceil(p/100 * n), clamped to [1, n]. 0 for an empty sample.
[[nodiscard]] double percentile_sorted(const std::vector<double>& sorted,
                                       double p);

/// The highest of 50, 90, 99, 99.9 and 99.99 that leaves at least ten
/// of \p n samples beyond it (n * (1 - p/100) >= 10); 0 when even the
/// median does not (n < 20).
[[nodiscard]] double highest_supported_percentile(u64 n);

/// Median, p99 and the highest supported percentile of one timing.
struct Summary {
  u64 n = 0;
  double p50 = 0;
  double p99 = 0;
  double top_p = 0;      ///< highest_supported_percentile(n)
  double top_value = 0;  ///< the sample's value at top_p
  /// p99 has at least ten samples beyond it (n >= 1000).
  [[nodiscard]] bool p99_supported() const { return top_p >= 99.0; }
};

/// Summarize \p samples (sorted in place).
[[nodiscard]] Summary summarize(std::vector<double>& samples);

/// Median of \p v (sorted in place); 0 when empty.
[[nodiscard]] double median(std::vector<double>& v);

// ---- error accounting ------------------------------------------------------

/// Everything a run checked, and what failed. error_rate =
/// failed / attempted, where attempted counts oracle-checked verdicts,
/// updates sent and engine passes compared, and failed counts oracle
/// mismatches, rejected or failed updates and engine passes whose
/// matched count differed from the pipeline's.
struct ErrorTally {
  u64 verdicts_checked = 0;
  u64 verdict_mismatches = 0;
  u64 updates_attempted = 0;
  u64 updates_failed = 0;
  u64 engine_passes = 0;
  u64 engine_mismatches = 0;

  [[nodiscard]] u64 attempted() const {
    return verdicts_checked + updates_attempted + engine_passes;
  }
  [[nodiscard]] u64 failed() const {
    return verdict_mismatches + updates_failed + engine_mismatches;
  }
  [[nodiscard]] double error_rate() const {
    return attempted() == 0 ? 0.0
                            : static_cast<double>(failed()) /
                                  static_cast<double>(attempted());
  }
};

// ---- update visibility -----------------------------------------------------

/// Update visibility from a timeline: an update that starts (its
/// control line starts parsing) at t and is published as rule version v
/// becomes visible at the end of the first later batch stamped with a
/// version >= v. The sample is that batch's end minus t. Feed events in
/// time order.
class VisibilityTracker {
 public:
  void on_update(u64 t_start_ns, u64 version);
  /// One batch ended at \p t_end_ns, classified against \p rule_version.
  /// Closes every pending update it makes visible; returns how many.
  std::size_t on_batch(u64 t_end_ns, u64 rule_version);

  [[nodiscard]] std::vector<double>& samples_us() { return samples_us_; }
  [[nodiscard]] std::size_t pending() const { return pending_.size(); }

 private:
  struct Pending {
    u64 t_start_ns;
    u64 version;
  };
  std::deque<Pending> pending_;
  std::vector<double> samples_us_;
};

// ---- oracle sampling -------------------------------------------------------

/// Picks which batches to check against the oracle: every stride-th
/// batch, keeping at most \p capacity picks with their payloads. When
/// full it drops every other pick and doubles the stride, so the kept
/// picks spread evenly over the whole run and depend only on the batch
/// count, never on timing.
template <typename T>
class StrideSample {
 public:
  StrideSample(u64 stride, std::size_t capacity)
      : stride_(stride == 0 ? 1 : stride),
        capacity_(capacity < 2 ? 2 : capacity) {}

  /// Should batch \p index (0, 1, 2, ... in order) be kept?
  [[nodiscard]] bool wants(u64 index) const { return index % stride_ == 0; }

  /// Keep batch \p index (which wants() accepted) with its payload.
  void add(u64 index, T payload) {
    if (kept_.size() == capacity_) {
      stride_ *= 2;
      std::size_t w = 0;
      for (std::size_t r = 0; r < kept_.size(); ++r) {
        if (kept_[r].first % stride_ == 0) kept_[w++] = std::move(kept_[r]);
      }
      kept_.resize(w);
      if (index % stride_ != 0) return;
    }
    kept_.emplace_back(index, std::move(payload));
  }

  [[nodiscard]] const std::vector<std::pair<u64, T>>& kept() const {
    return kept_;
  }
  [[nodiscard]] u64 stride() const { return stride_; }

 private:
  u64 stride_;
  std::size_t capacity_;
  std::vector<std::pair<u64, T>> kept_;
};

// ---- spans and self time ---------------------------------------------------

/// The layers a traced run times. kBatch is one whole batch (source to
/// sink) and kUpdate one whole control-line update (parse + apply);
/// the others are the calls made inside them.
enum class Layer : std::uint8_t {
  kBatch,
  kSource,
  kParser,
  kFlowCache,
  kClassifier,
  kSink,
  kUpdate,
  kParseRule,
  kApply,
};
inline constexpr std::size_t kNumLayers = 9;

[[nodiscard]] std::string_view layer_name(Layer l);

inline constexpr u32 kNoParent = 0xFFFFFFFFu;

/// One timed call. \p id is the batch number (batch-side layers) or the
/// update number (update-side layers); \p parent is the index, in the
/// span vector, of the span that caused this one (kNoParent for roots).
/// A batch's element calls have the batch as parent; an update's parse
/// and apply have the update as parent; the first batch after an update
/// (the recovery batch) has that update as parent.
struct Span {
  u64 start_ns = 0;
  u64 end_ns = 0;
  u32 id = 0;
  u32 parent = kNoParent;
  Layer layer = Layer::kBatch;
};

/// Per-layer self time: each span's duration minus the part of its own
/// interval that its children cover. Children of one parent must not
/// overlap each other (true for a single-thread run). A caused span
/// that lies outside its parent's interval (a recovery batch) covers
/// none of it.
[[nodiscard]] std::array<u64, kNumLayers> self_times_ns(
    const std::vector<Span>& spans);

// ---- misc ------------------------------------------------------------------

/// 64-bit FNV-1a, the input digest printed with every run.
[[nodiscard]] u64 fnv1a64(std::string_view bytes, u64 h = 0xcbf29ce484222325ull);

}  // namespace perfbench
