// Unit tests for the label method (Fig. 4): ref-counted label tables and
// the content-addressed label-list store.
#include <gtest/gtest.h>

#include <algorithm>

#include "alg/label_list_store.hpp"
#include "alg/label_table.hpp"
#include "common/error.hpp"
#include "ruleset/rule.hpp"

using namespace pclass;
using namespace pclass::alg;
using pclass::ruleset::PortRange;
using pclass::ruleset::ProtoMatch;
using pclass::ruleset::SegmentPrefix;

TEST(LabelTable, AcquireCreatesThenCounts) {
  LabelTable<SegmentPrefix> t(Dimension::kSrcIpHi);
  const auto v = SegmentPrefix::make(0x0A00, 8);
  const auto a1 = t.acquire(v, 5);
  EXPECT_TRUE(a1.created);
  const auto a2 = t.acquire(v, 3);
  EXPECT_FALSE(a2.created);
  EXPECT_EQ(a1.label, a2.label);
  EXPECT_EQ(t.refcount(v), 2u);
  EXPECT_EQ(t.size(), 1u);
}

TEST(LabelTable, BestPriorityTracksMultiset) {
  LabelTable<PortRange> t(Dimension::kDstPort);
  const auto v = PortRange::exact(80);
  t.acquire(v, 9);
  EXPECT_EQ(t.best_priority(v), 9u);
  t.acquire(v, 2);
  EXPECT_EQ(t.best_priority(v), 2u);
  t.release(v, 2);
  EXPECT_EQ(t.best_priority(v), 9u);  // falls back to remaining rule
}

TEST(LabelTable, ReleaseFreesAtZeroAndReusesLabels) {
  LabelTable<ProtoMatch> t(Dimension::kProtocol);
  const auto tcp = ProtoMatch::exact(6);
  const Label l = t.acquire(tcp, 1).label;
  const auto rel = t.release(tcp, 1);
  EXPECT_TRUE(rel.freed);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_FALSE(t.find(tcp).has_value());
  // Freed label value is recycled (2-bit label space is tiny).
  const Label l2 = t.acquire(ProtoMatch::exact(17), 1).label;
  EXPECT_EQ(l2, l);
}

TEST(LabelTable, PartialReleaseKeepsLabel) {
  LabelTable<SegmentPrefix> t(Dimension::kDstIpLo);
  const auto v = SegmentPrefix::make(0x1200, 8);
  t.acquire(v, 1);
  t.acquire(v, 2);
  const auto rel = t.release(v, 1);
  EXPECT_FALSE(rel.freed);
  EXPECT_EQ(t.refcount(v), 1u);
}

TEST(LabelTable, CapacityIsLabelWidth) {
  LabelTable<ProtoMatch> t(Dimension::kProtocol);  // 2-bit labels -> 4
  EXPECT_EQ(t.capacity(), 4u);
  t.acquire(ProtoMatch::exact(1), 0);
  t.acquire(ProtoMatch::exact(2), 0);
  t.acquire(ProtoMatch::exact(3), 0);
  t.acquire(ProtoMatch::any(), 0);
  EXPECT_THROW(t.acquire(ProtoMatch::exact(50), 0), CapacityError);
}

TEST(LabelTable, ReleaseUnknownThrows) {
  LabelTable<PortRange> t(Dimension::kSrcPort);
  EXPECT_THROW(t.release(PortRange::exact(1), 0), InternalError);
  t.acquire(PortRange::exact(1), 7);
  EXPECT_THROW(t.release(PortRange::exact(1), 8), InternalError);  // bad prio
}

TEST(LabelTable, ForEachDeterministicAndComplete) {
  LabelTable<SegmentPrefix> t(Dimension::kSrcIpLo);
  t.acquire(SegmentPrefix::make(0x0100, 8), 3);
  t.acquire(SegmentPrefix::make(0x0200, 8), 1);
  usize n = 0;
  Priority seen_prio = kNoPriority;
  t.for_each([&](const SegmentPrefix& v, Label l, Priority p) {
    ++n;
    EXPECT_TRUE(l.valid());
    if (v.value == 0x0200) seen_prio = p;
  });
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(seen_prio, 1u);
}

// ---- LabelListStore ----

namespace {
std::vector<Label> L(std::initializer_list<int> xs) {
  std::vector<Label> out;
  for (int x : xs) out.push_back(Label{static_cast<u16>(x)});
  return out;
}
}  // namespace

TEST(ListStore, StoresAndReadsBack) {
  LabelListStore s("s", 64, 13);
  hw::CommandLog log;
  const ListRef r = s.acquire(L({3, 1, 2}), log);
  ASSERT_FALSE(r.empty());
  hw::CycleRecorder rec;
  EXPECT_EQ(s.read_first(r, &rec).value, 3u);
  EXPECT_EQ(rec.memory_accesses(), 1u);  // first label = one access
  const auto all = s.read_list(r, &rec);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[1].value, 1u);
  EXPECT_EQ(rec.memory_accesses(), 4u);  // + full walk
}

TEST(ListStore, ContentAddressedDedup) {
  LabelListStore s("s", 64, 13);
  hw::CommandLog log;
  const ListRef a = s.acquire(L({1, 2}), log);
  const usize words_after_first = log.size();
  const ListRef b = s.acquire(L({1, 2}), log);
  EXPECT_EQ(a, b);                            // same storage
  EXPECT_EQ(log.size(), words_after_first);   // no new device writes
  EXPECT_EQ(s.distinct_lists(), 1u);
  const ListRef c = s.acquire(L({2, 1}), log);  // order matters
  EXPECT_NE(a, c);
}

TEST(ListStore, ReleaseFreesAndReuses) {
  LabelListStore s("s", 8, 13);  // tiny: 7 usable words
  hw::CommandLog log;
  const ListRef a = s.acquire(L({1, 2, 3}), log);
  const ListRef b = s.acquire(L({4, 5, 6}), log);
  EXPECT_EQ(s.live_words(), 6u);
  s.release(a);
  EXPECT_EQ(s.live_words(), 3u);
  // Freed block is reusable; without reuse this would overflow depth 8.
  const ListRef c = s.acquire(L({7, 8, 9}), log);
  EXPECT_FALSE(c.empty());
  (void)b;
}

TEST(ListStore, RefcountAcrossAcquires) {
  LabelListStore s("s", 32, 13);
  hw::CommandLog log;
  const ListRef a = s.acquire(L({5}), log);
  const ListRef b = s.acquire(L({5}), log);
  s.release(a);
  // Still alive through b.
  EXPECT_EQ(s.read_first(b, nullptr).value, 5u);
  EXPECT_EQ(s.live_words(), 1u);
  s.release(b);
  EXPECT_EQ(s.live_words(), 0u);
}

TEST(ListStore, CapacityError) {
  LabelListStore s("s", 4, 13);  // 3 usable words (addr 0 reserved)
  hw::CommandLog log;
  (void)s.acquire(L({1, 2}), log);
  EXPECT_THROW((void)s.acquire(L({3, 4}), log), CapacityError);
}

TEST(ListStore, EmptyListRejected) {
  LabelListStore s("s", 8, 13);
  hw::CommandLog log;
  EXPECT_THROW((void)s.acquire({}, log), ConfigError);
  EXPECT_EQ(s.read_list(ListRef{}, nullptr).size(), 0u);
}

TEST(ListStore, DoubleFreeDetected) {
  LabelListStore s("s", 8, 13);
  hw::CommandLog log;
  const ListRef a = s.acquire(L({1}), log);
  s.release(a);
  EXPECT_THROW(s.release(a), InternalError);
}

TEST(ListStore, CoalescingAllowsLargeReuse) {
  LabelListStore s("s", 16, 13);
  hw::CommandLog log;
  const ListRef a = s.acquire(L({1, 2}), log);
  const ListRef b = s.acquire(L({3, 4}), log);
  const ListRef c = s.acquire(L({5, 6}), log);
  s.release(a);
  s.release(b);
  s.release(c);  // all free -> coalesced -> bump reset
  // A 15-word list now fits even though the store saw fragmentation.
  const ListRef big = s.acquire(
      L({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}), log);
  EXPECT_FALSE(big.empty());
}

TEST(ListStore, WordLayoutHasEndFlag) {
  LabelListStore s("s", 8, 13);
  hw::CommandLog log;
  const ListRef r = s.acquire(L({7, 9}), log);
  const hw::Word w0 = s.memory().read(r.addr, nullptr);
  const hw::Word w1 = s.memory().read(r.addr + 1, nullptr);
  EXPECT_EQ(w0.get(0, 13), 7u);
  EXPECT_EQ(w0.get(13, 1), 0u);  // not last
  EXPECT_EQ(w1.get(0, 13), 9u);
  EXPECT_EQ(w1.get(13, 1), 1u);  // last
}

// The span a lookup reads is the stored list, charged one read per word,
// and follows the device words when a freed block is reused; the content
// index still finds each live list. An address past the memory throws.
TEST(ListStore, SpanReadsFollowDeviceWordsAcrossReuse) {
  LabelListStore s("s", 16, 13);
  hw::CommandLog log;
  const ListRef a = s.acquire(L({1, 2, 3}), log);
  hw::CycleRecorder rec;
  EXPECT_TRUE(std::ranges::equal(s.read_list(a, &rec), L({1, 2, 3})));
  EXPECT_EQ(rec.memory_accesses(), 3u);
  EXPECT_EQ(rec.cycles(), 3u);
  s.release(a);

  const ListRef b = s.acquire(L({4, 5}), log);
  EXPECT_EQ(b, a);  // the freed block, rewritten
  EXPECT_TRUE(std::ranges::equal(s.read_list(b, nullptr), L({4, 5})));
  EXPECT_EQ(s.memory().read(b.addr + 1, nullptr).get(13, 1), 1u);
  const ListRef c = s.acquire(L({1, 2, 3}), log);
  EXPECT_NE(c, b);
  EXPECT_TRUE(std::ranges::equal(s.read_list(c, nullptr), L({1, 2, 3})));
  EXPECT_EQ(s.acquire(L({4, 5}), log), b);
  EXPECT_EQ(s.distinct_lists(), 2u);
  EXPECT_EQ(s.total_references(), 3u);
  EXPECT_EQ(s.replicated_words(), 7u);

  EXPECT_THROW((void)s.read_list(ListRef{16}, nullptr), ConfigError);
  EXPECT_THROW((void)s.read_first(ListRef{16}, nullptr), ConfigError);
}
