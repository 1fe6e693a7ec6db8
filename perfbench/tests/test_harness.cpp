// Tests for the benchmark's own arithmetic (perfbench/src/harness.*):
// the percentile and sample-count rule, the error_rate base, update
// visibility on a synthetic timeline, the oracle sampler and per-layer
// self time from spans.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "harness.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, NearestRankOnOneToHundred) {
  const std::vector<double> v = one_to(100);
  EXPECT_EQ(percentile_sorted(v, 50), 50);
  EXPECT_EQ(percentile_sorted(v, 99), 99);
  EXPECT_EQ(percentile_sorted(v, 100), 100);
  EXPECT_EQ(percentile_sorted(v, 0), 1);  // rank clamps to 1
  EXPECT_EQ(percentile_sorted({}, 50), 0);
}

TEST(Percentile, RankIsNotPushedUpByRounding) {
  // 99.9% of 10000 is rank 9990 exactly, whatever binary rounding says.
  const std::vector<double> v = one_to(10'000);
  EXPECT_EQ(percentile_sorted(v, 99.9), 9990);
  EXPECT_EQ(percentile_sorted(v, 99.99), 9999);
}

TEST(Percentile, HighestSupportedKeepsTenSamplesBeyond) {
  EXPECT_EQ(highest_supported_percentile(0), 0);
  EXPECT_EQ(highest_supported_percentile(19), 0);
  EXPECT_EQ(highest_supported_percentile(20), 50);
  EXPECT_EQ(highest_supported_percentile(99), 50);
  EXPECT_EQ(highest_supported_percentile(100), 90);
  EXPECT_EQ(highest_supported_percentile(999), 90);
  EXPECT_EQ(highest_supported_percentile(1000), 99);
  EXPECT_EQ(highest_supported_percentile(9999), 99);
  EXPECT_EQ(highest_supported_percentile(10'000), 99.9);
  EXPECT_EQ(highest_supported_percentile(100'000), 99.99);
}

TEST(Percentile, SummaryFlagsAnUnsupportedP99) {
  std::vector<double> small = one_to(999);
  const Summary s = summarize(small);
  EXPECT_EQ(s.n, 999u);
  EXPECT_FALSE(s.p99_supported());
  EXPECT_EQ(s.top_p, 90);
  EXPECT_EQ(s.top_value, 900);

  std::vector<double> big = one_to(1000);
  std::reverse(big.begin(), big.end());  // summarize sorts
  const Summary b = summarize(big);
  EXPECT_TRUE(b.p99_supported());
  EXPECT_EQ(b.p50, 500);
  EXPECT_EQ(b.p99, 990);
}

TEST(Median, OddEvenAndEmpty) {
  std::vector<double> odd = {3, 1, 2};
  std::vector<double> even = {4, 1, 3, 2};
  std::vector<double> none;
  EXPECT_EQ(median(odd), 2);
  EXPECT_EQ(median(even), 2.5);
  EXPECT_EQ(median(none), 0);
}

TEST(ErrorTally, RateIsFailuresOverEverythingChecked) {
  ErrorTally t;
  EXPECT_EQ(t.error_rate(), 0);  // nothing attempted
  t.verdicts_checked = 900;
  t.updates_attempted = 95;
  t.engine_passes = 5;
  EXPECT_EQ(t.attempted(), 1000u);
  EXPECT_EQ(t.error_rate(), 0);
  t.verdict_mismatches = 1;
  t.updates_failed = 2;
  t.engine_mismatches = 1;
  EXPECT_EQ(t.failed(), 4u);
  EXPECT_DOUBLE_EQ(t.error_rate(), 0.004);
}

TEST(Visibility, FirstBatchStampedWithTheVersionCloses) {
  VisibilityTracker v;
  v.on_update(/*t_start_ns=*/1'000, /*version=*/11);
  EXPECT_EQ(v.on_batch(1'500, 10), 0u);  // still the old version
  EXPECT_EQ(v.on_batch(3'000, 11), 1u);  // visible: 3000 - 1000 ns
  EXPECT_EQ(v.on_batch(4'000, 11), 0u);  // nothing pending
  ASSERT_EQ(v.samples_us().size(), 1u);
  EXPECT_DOUBLE_EQ(v.samples_us()[0], 2.0);
  EXPECT_EQ(v.pending(), 0u);
}

TEST(Visibility, OneBatchCanCloseSeveralUpdates) {
  VisibilityTracker v;
  v.on_update(1'000, 21);
  v.on_update(2'000, 22);
  v.on_update(3'000, 23);
  // Stamped 22: closes the first two; the third waits for a later batch.
  EXPECT_EQ(v.on_batch(5'000, 22), 2u);
  EXPECT_EQ(v.pending(), 1u);
  EXPECT_EQ(v.on_batch(9'000, 23), 1u);
  ASSERT_EQ(v.samples_us().size(), 3u);
  EXPECT_DOUBLE_EQ(v.samples_us()[0], 4.0);
  EXPECT_DOUBLE_EQ(v.samples_us()[1], 3.0);
  EXPECT_DOUBLE_EQ(v.samples_us()[2], 6.0);
}

TEST(Visibility, ABatchThatEndedBeforeTheUpdateDoesNotCount) {
  VisibilityTracker v;
  v.on_update(5'000, 7);
  EXPECT_EQ(v.on_batch(4'000, 7), 0u);
  EXPECT_EQ(v.on_batch(6'000, 7), 1u);
  EXPECT_DOUBLE_EQ(v.samples_us()[0], 1.0);
}

TEST(StrideSample, DecimatesEvenlyAndDeterministically) {
  StrideSample<int> s(/*stride=*/1, /*capacity=*/4);
  for (u64 i = 0; i < 9; ++i) {
    if (s.wants(i)) s.add(i, static_cast<int>(i * 10));
  }
  // 0..3 fill it; 4 halves it to {0, 2} at stride 2, then 4 and 6 join;
  // 8 halves it again to {0, 4} at stride 4 and joins.
  EXPECT_EQ(s.stride(), 4u);
  ASSERT_EQ(s.kept().size(), 3u);
  EXPECT_EQ(s.kept()[0].first, 0u);
  EXPECT_EQ(s.kept()[1].first, 4u);
  EXPECT_EQ(s.kept()[2].first, 8u);
  EXPECT_EQ(s.kept()[2].second, 80);
}

TEST(SelfTime, ChildrenAreSubtractedAndCausedSpansOutsideAreNot) {
  std::vector<Span> spans;
  // Batch 0 over [0, 100): its five elements cover all but 10 ns of it.
  spans.push_back({0, 100, 0, kNoParent, Layer::kBatch});
  spans.push_back({0, 10, 0, 0, Layer::kSource});
  spans.push_back({10, 30, 0, 0, Layer::kParser});
  spans.push_back({30, 40, 0, 0, Layer::kFlowCache});
  spans.push_back({40, 80, 0, 0, Layer::kClassifier});
  spans.push_back({80, 90, 0, 0, Layer::kSink});
  // Update 1 over [200, 300): parse then apply.
  spans.push_back({200, 300, 1, kNoParent, Layer::kUpdate});
  spans.push_back({200, 220, 1, 6, Layer::kParseRule});
  spans.push_back({220, 300, 1, 6, Layer::kApply});
  // The recovery batch: caused by the update, but after it.
  spans.push_back({300, 450, 1, 6, Layer::kBatch});

  const auto self = self_times_ns(spans);
  const auto at = [&](Layer l) { return self[static_cast<std::size_t>(l)]; };
  EXPECT_EQ(at(Layer::kBatch), 10u + 150u);
  EXPECT_EQ(at(Layer::kSource), 10u);
  EXPECT_EQ(at(Layer::kParser), 20u);
  EXPECT_EQ(at(Layer::kFlowCache), 10u);
  EXPECT_EQ(at(Layer::kClassifier), 40u);
  EXPECT_EQ(at(Layer::kSink), 10u);
  EXPECT_EQ(at(Layer::kUpdate), 0u);
  EXPECT_EQ(at(Layer::kParseRule), 20u);
  EXPECT_EQ(at(Layer::kApply), 80u);
  // Self times add up to the roots' time exactly: 100 + 100 + 150 ns.
  u64 sum = 0;
  for (const u64 v : self) sum += v;
  EXPECT_EQ(sum, 350u);
}

TEST(Digest, Fnv1aKnownValues) {
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  // Chaining equals hashing the concatenation.
  EXPECT_EQ(fnv1a64("bc", fnv1a64("a")), fnv1a64("abc"));
}

}  // namespace
}  // namespace perfbench
