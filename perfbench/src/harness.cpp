#include "harness.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

/// ceil(p/100 * n), with a tolerance so that e.g. 99.9% of 10000 is rank
/// 9990 and not 9991 through binary rounding.
double nearest_rank(double p, u64 n) {
  return std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
}

}  // namespace

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  const double rank = std::clamp(nearest_rank(p, sorted.size()), 1.0, n);
  return sorted[static_cast<std::size_t>(rank) - 1];
}

double highest_supported_percentile(u64 n) {
  constexpr std::array<double, 5> kLadder = {99.99, 99.9, 99.0, 90.0, 50.0};
  for (const double p : kLadder) {
    // Samples strictly beyond the nearest-rank position of p.
    const double beyond = static_cast<double>(n) - nearest_rank(p, n);
    if (beyond >= 10.0) return p;
  }
  return 0.0;
}

Summary summarize(std::vector<double>& samples) {
  std::sort(samples.begin(), samples.end());
  Summary s;
  s.n = samples.size();
  s.p50 = percentile_sorted(samples, 50.0);
  s.p99 = percentile_sorted(samples, 99.0);
  s.top_p = highest_supported_percentile(s.n);
  s.top_value = s.top_p > 0 ? percentile_sorted(samples, s.top_p) : 0.0;
  return s;
}

double median(std::vector<double>& v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

void VisibilityTracker::on_update(u64 t_start_ns, u64 version) {
  pending_.push_back({t_start_ns, version});
}

std::size_t VisibilityTracker::on_batch(u64 t_end_ns, u64 rule_version) {
  std::size_t closed = 0;
  // Versions are published in order, so the pending queue is sorted by
  // version and one batch closes a prefix of it.
  while (!pending_.empty() && pending_.front().version <= rule_version &&
         pending_.front().t_start_ns <= t_end_ns) {
    samples_us_.push_back(
        static_cast<double>(t_end_ns - pending_.front().t_start_ns) / 1e3);
    pending_.pop_front();
    ++closed;
  }
  return closed;
}

std::string_view layer_name(Layer l) {
  switch (l) {
    case Layer::kBatch: return "batch";
    case Layer::kSource: return "dataplane.source";
    case Layer::kParser: return "net.parse";
    case Layer::kFlowCache: return "core.flow_cache";
    case Layer::kClassifier: return "core.classifier";
    case Layer::kSink: return "dataplane.sink";
    case Layer::kUpdate: return "update";
    case Layer::kParseRule: return "control.parse_rule";
    case Layer::kApply: return "dataplane.publisher.apply";
  }
  return "?";
}

std::array<u64, kNumLayers> self_times_ns(const std::vector<Span>& spans) {
  std::vector<u64> covered(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent == kNoParent || s.parent >= spans.size()) continue;
    const Span& p = spans[s.parent];
    const u64 lo = std::max(s.start_ns, p.start_ns);
    const u64 hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) covered[s.parent] += hi - lo;
  }
  std::array<u64, kNumLayers> out{};
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const u64 dur = s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
    out[static_cast<std::size_t>(s.layer)] +=
        dur > covered[i] ? dur - covered[i] : 0;
  }
  return out;
}

u64 fnv1a64(std::string_view bytes, u64 h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace perfbench
