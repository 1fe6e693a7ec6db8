// Unit tests for the label method (Fig. 4): ref-counted label tables and
// the content-addressed label-list store.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "alg/label_list_store.hpp"
#include "alg/label_table.hpp"
#include "common/error.hpp"
#include "common/random.hpp"
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

namespace {

// A LabelTable beside a reference model kept in ordered trees: a
// std::map from value to (label, std::multiset of priorities) and the
// label allocator spelled out (free labels reused last-freed first, then
// fresh ones in order). Every step compares what the table returns with
// what the model says, and check() compares the whole table.
template <typename ValueT>
class ModelCheck {
 public:
  explicit ModelCheck(Dimension dim) : table_(dim) {}

  void acquire(const ValueT& v, Priority p) {
    auto it = model_.find(v);
    if (it == model_.end() && model_.size() >= table_.capacity()) {
      EXPECT_THROW(table_.acquire(v, p), CapacityError);
      return;
    }
    const AcquireResult got = table_.acquire(v, p);
    EXPECT_EQ(got.created, it == model_.end());
    if (it == model_.end()) {
      Label l{next_};
      if (free_.empty()) {
        ++next_;
      } else {
        l = free_.back();
        free_.pop_back();
      }
      it = model_.emplace(v, Entry{l, {}}).first;
    }
    it->second.prios.insert(p);
    EXPECT_EQ(got.label, it->second.label);
    EXPECT_EQ(got.best, *it->second.prios.begin());
    held_.emplace_back(v, p);
  }

  /// Releases held acquisition \p k (any order).
  void release(usize k) {
    const auto [v, p] = held_[k];
    held_[k] = held_.back();
    held_.pop_back();
    release_held(v, p);
  }

  /// Releases the acquisition of \p v at \p p, which must be held.
  void release(const ValueT& v, Priority p) {
    const auto it = std::find(held_.begin(), held_.end(), std::pair{v, p});
    ASSERT_NE(it, held_.end());
    release(static_cast<usize>(it - held_.begin()));
  }

  /// A release the model does not hold throws and changes nothing.
  void release_unheld(const ValueT& v, Priority p) {
    const auto it = model_.find(v);
    ASSERT_TRUE(it == model_.end() || !it->second.prios.contains(p));
    EXPECT_THROW(table_.release(v, p), InternalError);
  }

  void check() {
    EXPECT_EQ(table_.size(), model_.size());
    std::vector<std::tuple<ValueT, Label, Priority>> want;
    for (const auto& [v, e] : model_) {
      want.emplace_back(v, e.label, *e.prios.begin());
      EXPECT_EQ(table_.find(v), e.label);
      EXPECT_EQ(table_.refcount(v), e.prios.size());
      EXPECT_EQ(table_.best_priority(v), *e.prios.begin());
    }
    std::vector<std::tuple<ValueT, Label, Priority>> got;
    table_.for_each([&](const ValueT& v, Label l, Priority p) {
      got.emplace_back(v, l, p);
    });
    EXPECT_EQ(got, want);  // ascending value order, as the map iterates
  }

  void check_absent(const ValueT& v) {
    if (model_.contains(v)) return;
    EXPECT_FALSE(table_.find(v).has_value());
    EXPECT_EQ(table_.refcount(v), 0u);
    EXPECT_EQ(table_.best_priority(v), kNoPriority);
  }

  [[nodiscard]] usize held() const { return held_.size(); }
  [[nodiscard]] const std::pair<ValueT, Priority>& held(usize k) const {
    return held_[k];
  }

 private:
  void release_held(const ValueT& v, Priority p) {
    const auto it = model_.find(v);
    ASSERT_NE(it, model_.end());
    it->second.prios.erase(it->second.prios.find(p));
    const ReleaseResult got = table_.release(v, p);
    EXPECT_EQ(got.label, it->second.label);
    const bool freed = it->second.prios.empty();
    EXPECT_EQ(got.freed, freed);
    if (freed) {
      EXPECT_EQ(got.best, kNoPriority);
      free_.push_back(it->second.label);
      model_.erase(it);
    } else {
      EXPECT_EQ(got.best, *it->second.prios.begin());
    }
  }

  struct Entry {
    Label label;
    std::multiset<Priority> prios;
  };

  LabelTable<ValueT> table_;
  std::map<ValueT, Entry> model_;
  std::vector<Label> free_;
  u16 next_ = 0;
  std::vector<std::pair<ValueT, Priority>> held_;
};

/// A priority: mostly from a narrow band (so rules share priorities),
/// otherwise from an ACL-sized range.
Priority draw_priority(Rng& rng) {
  return static_cast<Priority>(rng.chance(0.5) ? rng.below(8)
                                               : rng.below(10000));
}

/// Random acquires and releases over a pool of \p values, the pool
/// larger than the table's capacity where \p values allow, with the
/// table checked whole every 32 steps.
template <typename ValueT>
void random_walk(ModelCheck<ValueT>& m, const std::vector<ValueT>& values,
                 Rng& rng, usize steps) {
  for (usize s = 0; s < steps; ++s) {
    const ValueT& v = values[rng.below(values.size())];
    // Grow, then shrink to empty, then grow again: labels are freed in
    // bulk and reused.
    const bool growing = (s / (steps / 4)) % 2 == 0;
    if (m.held() == 0 || rng.chance(growing ? 0.7 : 0.2)) {
      m.acquire(v, draw_priority(rng));
    } else {
      m.release(rng.below(m.held()));
    }
    if (rng.chance(0.02)) {
      const Priority p = static_cast<Priority>(10000 + rng.below(100));
      m.release_unheld(v, p);  // no rule holds a priority >= 10000
    }
    if (s % 32 == 0) {
      m.check();
      m.check_absent(v);
    }
  }
  while (m.held() > 0) m.release(rng.below(m.held()));
  m.check();
}

}  // namespace

// The table against a map/multiset model on seeded runs over all three
// key types: shared priorities, labels freed and reused, the capacity
// bound, and one value held by 5000 rules with priority-0 rules acquired
// and released in front of it (as churn adds rules at priority 0 ahead
// of the wildcard source port and the common protocols).
TEST(LabelTable, MatchesReferenceModel) {
  Rng rng(0x1AB31);

  std::vector<SegmentPrefix> prefixes;
  for (int i = 0; i < 400; ++i) {
    prefixes.push_back(SegmentPrefix::make(
        static_cast<u16>(rng.next()), static_cast<u8>(rng.below(17))));
  }
  ModelCheck<SegmentPrefix> ip(Dimension::kSrcIpHi);
  random_walk(ip, prefixes, rng, 6000);

  // 160 ranges over a 128-label table: the walk meets CapacityError.
  std::vector<PortRange> ranges = {PortRange::wildcard()};
  while (ranges.size() < 160) {
    const u16 a = static_cast<u16>(rng.next());
    const u16 b = static_cast<u16>(rng.next());
    ranges.push_back(PortRange::make(std::min(a, b), std::max(a, b)));
  }
  ModelCheck<PortRange> port(Dimension::kSrcPort);
  random_walk(port, ranges, rng, 6000);

  const std::vector<ProtoMatch> protos = {
      ProtoMatch::any(), ProtoMatch::exact(6), ProtoMatch::exact(17),
      ProtoMatch::exact(1), ProtoMatch::exact(47), ProtoMatch::exact(0)};
  ModelCheck<ProtoMatch> proto(Dimension::kProtocol);
  random_walk(proto, protos, rng, 3000);

  // A wildcard held by 5000 rules installed in priority order, beside a
  // few other ranges; then churn: priority-0 rules come and go in front
  // of it, while base rules leave and return at random priorities.
  for (Priority p = 1; p <= 5000; ++p) {
    port.acquire(PortRange::wildcard(), p);
    if (p % 500 == 0) port.acquire(ranges[p / 500], p);
  }
  port.check();
  for (usize s = 0; s < 4000; ++s) {
    const usize zeros = 1 + rng.below(3);
    for (usize z = 0; z < zeros; ++z) port.acquire(PortRange::wildcard(), 0);
    for (usize z = 0; z < zeros; ++z) port.release(PortRange::wildcard(), 0);
    if (rng.chance(0.1)) {
      const usize k = rng.below(port.held());
      const auto [v, p] = port.held(k);
      port.release(k);
      port.acquire(v, p == 0 ? 0 : draw_priority(rng) + 1);
    }
    if (s % 256 == 0) port.check();
  }
  port.check();

  for (Priority p = 1; p <= 5000; ++p) proto.acquire(ProtoMatch::exact(17), p);
  for (usize s = 0; s < 2000; ++s) {
    proto.acquire(ProtoMatch::exact(17), 0);
    proto.acquire(ProtoMatch::any(), 0);
    proto.release(ProtoMatch::exact(17), 0);
    proto.release(ProtoMatch::any(), 0);
  }
  proto.check();
  while (proto.held() > 0) proto.release(rng.below(proto.held()));
  proto.check();

  // Rules leave from the front while new ones arrive at the back: the
  // run slides through its buffer.
  for (Priority p = 0; p < 3000; ++p) {
    proto.acquire(ProtoMatch::exact(6), 100 + p);
    if (p >= 40) proto.release(ProtoMatch::exact(6), 60 + p);
    if (p % 100 == 0) proto.acquire(ProtoMatch::exact(6), 0);
    if (p % 100 == 50) proto.release(ProtoMatch::exact(6), 0);
    if (p % 256 == 0) proto.check();
  }
  proto.check();
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
