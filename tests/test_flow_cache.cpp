// Flow-cache fast path: exact-match semantics and the fill/invalidate
// policy. The dataplane's use of it (a cached verdict must never outlive
// a rule change) is tested through FlowCacheElement in test_dataplane.
#include <gtest/gtest.h>

#include "core/flow_cache.hpp"
#include "net/packet.hpp"

using namespace pclass;
using namespace pclass::core;

namespace {

net::FiveTuple tuple(u32 a, u16 p) {
  return {a, a ^ 0xDEADBEEF, 1000, p, net::kProtoTcp};
}

}  // namespace

TEST(FlowCache, MissThenHit) {
  FlowCache c("c", 64);
  hw::CycleRecorder rec;
  EXPECT_FALSE(c.lookup(tuple(1, 80), &rec).has_value());
  c.fill(tuple(1, 80), RuleEntry{RuleId{7}, 3, 42});
  const auto hit = c.lookup(tuple(1, 80), &rec);
  ASSERT_TRUE(hit.has_value());
  ASSERT_TRUE(hit->has_value());
  EXPECT_EQ((*hit)->rule.value, 7u);
  EXPECT_EQ((*hit)->action, 42u);
  EXPECT_EQ(c.stats().hits, 1u);
  EXPECT_EQ(c.stats().misses, 1u);
}

TEST(FlowCache, CachesNegativeVerdicts) {
  FlowCache c("c", 64);
  c.fill(tuple(2, 81), std::nullopt);  // flow with no matching rule
  const auto hit = c.lookup(tuple(2, 81), nullptr);
  ASSERT_TRUE(hit.has_value());
  EXPECT_FALSE(hit->has_value());  // cached "drop"
}

TEST(FlowCache, LookupCostIsTwoCycles) {
  FlowCache c("c", 64);
  c.fill(tuple(3, 82), RuleEntry{RuleId{1}, 0, 0});
  hw::CycleRecorder rec;
  (void)c.lookup(tuple(3, 82), &rec);
  EXPECT_EQ(rec.cycles(), 2u);           // hash + line read
  EXPECT_EQ(rec.memory_accesses(), 1u);
}

TEST(FlowCache, DirectMappedEviction) {
  FlowCache c("c", 1);  // every tuple maps to the same line
  c.fill(tuple(1, 80), RuleEntry{RuleId{1}, 0, 0});
  c.fill(tuple(2, 81), RuleEntry{RuleId{2}, 0, 0});
  EXPECT_FALSE(c.lookup(tuple(1, 80), nullptr).has_value());  // evicted
  EXPECT_TRUE(c.lookup(tuple(2, 81), nullptr).has_value());
}

TEST(FlowCache, InvalidateAllFlushes) {
  FlowCache c("c", 64);
  c.fill(tuple(1, 80), RuleEntry{RuleId{1}, 0, 0});
  c.invalidate_all();
  EXPECT_FALSE(c.lookup(tuple(1, 80), nullptr).has_value());
  EXPECT_EQ(c.stats().invalidations, 1u);
}
