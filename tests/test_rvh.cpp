// Unit + property tests for the range-vector hash engine (the
// incremental-update IP backend): signature bucketing, leaf-pushed
// covering lists, in-place add/remove/modify, cluster repair under
// collisions.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "alg/range_vector_hash.hpp"
#include "common/error.hpp"
#include "common/random.hpp"
#include "common/bits.hpp"

using namespace pclass;
using namespace pclass::alg;
using pclass::ruleset::SegmentPrefix;

namespace {

struct Rig {
  std::map<u16, Priority> prio;
  LabelListStore lists{"lists", 4096, kIpLabelBits};
  std::unique_ptr<RangeVectorHash> rvh;
  hw::CommandLog log;

  explicit Rig(RvhConfig c = {}) {
    rvh = std::make_unique<RangeVectorHash>(
        "t", c, lists, [this](Label l) {
          const auto it = prio.find(l.value);
          return it == prio.end() ? kNoPriority : it->second;
        });
  }

  void insert(u16 value, u8 len, u16 label, Priority p) {
    prio[label] = p;
    rvh->insert(SegmentPrefix::make(value, len), Label{label}, log);
  }
  std::vector<u16> lookup(u16 key) {
    hw::CycleRecorder rec;
    std::vector<u16> out;
    for (Label l : lists.read_list(rvh->lookup(key, &rec), &rec)) {
      out.push_back(l.value);
    }
    return out;
  }
};

struct Oracle {
  struct Entry {
    SegmentPrefix p;
    u16 label;
    Priority prio;
  };
  std::vector<Entry> entries;
  std::vector<u16> lookup(u16 key) const {
    std::vector<Entry> hit;
    for (const Entry& e : entries) {
      if (e.p.matches(key)) hit.push_back(e);
    }
    std::sort(hit.begin(), hit.end(), [](const Entry& a, const Entry& b) {
      return a.prio != b.prio ? a.prio < b.prio : a.label < b.label;
    });
    std::vector<u16> out;
    for (const Entry& e : hit) out.push_back(e.label);
    return out;
  }
};

}  // namespace

TEST(Rvh, EmptyMisses) {
  Rig rig;
  EXPECT_TRUE(rig.lookup(0x1234).empty());
  EXPECT_EQ(rig.rvh->entry_count(), 0u);
  EXPECT_EQ(rig.rvh->live_length_count(), 0u);
}

TEST(Rvh, SinglePrefix) {
  Rig rig;
  rig.insert(0xAB00, 8, 1, 0);
  EXPECT_EQ(rig.lookup(0xAB42), std::vector<u16>{1});
  EXPECT_TRUE(rig.lookup(0xAC00).empty());
  EXPECT_TRUE(rig.lookup(0x0000).empty());
  EXPECT_EQ(rig.rvh->entry_count(), 1u);
}

TEST(Rvh, SignatureBucketingTracksDistinctLengths) {
  Rig rig;
  // Three prefixes over two signatures (lengths 8 and 12): one table
  // entry per prefix, one probe group per distinct live length.
  rig.insert(0xAB00, 8, 1, 1);
  rig.insert(0xCD00, 8, 2, 2);
  rig.insert(0xABC0, 12, 3, 3);
  EXPECT_EQ(rig.rvh->entry_count(), 3u);
  EXPECT_EQ(rig.rvh->prefix_count(), 3u);
  EXPECT_EQ(rig.rvh->live_length_count(), 2u);
  rig.rvh->remove(SegmentPrefix::make(0xABC0, 12), rig.log);
  EXPECT_EQ(rig.rvh->live_length_count(), 1u);
  rig.rvh->remove(SegmentPrefix::make(0xAB00, 8), rig.log);
  EXPECT_EQ(rig.rvh->live_length_count(), 1u);  // 0xCD00/8 keeps length 8
}

TEST(Rvh, AnchorCarriesFullCoveringList) {
  Rig rig;
  rig.insert(0, 0, 10, 5);
  rig.insert(0xAB00, 8, 11, 2);
  rig.insert(0xABC0, 12, 12, 8);
  // First (longest) hit already carries ancestors, priority-ordered.
  EXPECT_EQ(rig.lookup(0xABC5), (std::vector<u16>{11, 10, 12}));
  EXPECT_EQ(rig.lookup(0xAB00), (std::vector<u16>{11, 10}));
  EXPECT_EQ(rig.lookup(0x0001), std::vector<u16>{10});
}

TEST(Rvh, InsertLeafPushesIntoDescendants) {
  Rig rig;
  rig.insert(0xABC0, 12, 12, 8);
  EXPECT_EQ(rig.lookup(0xABC5), std::vector<u16>{12});
  // A later, shorter ancestor must appear in the existing descendant's
  // covering list — the incremental leaf-push path.
  rig.insert(0xAB00, 8, 11, 2);
  EXPECT_EQ(rig.lookup(0xABC5), (std::vector<u16>{11, 12}));
  rig.insert(0, 0, 10, 5);
  EXPECT_EQ(rig.lookup(0xABC5), (std::vector<u16>{11, 10, 12}));
}

TEST(Rvh, RemoveRestores) {
  Rig rig;
  rig.insert(0xAB00, 8, 1, 1);
  rig.insert(0xABCD, 16, 2, 2);
  rig.rvh->remove(SegmentPrefix::make(0xABCD, 16), rig.log);
  EXPECT_EQ(rig.lookup(0xABCD), std::vector<u16>{1});
  rig.rvh->remove(SegmentPrefix::make(0xAB00, 8), rig.log);
  EXPECT_TRUE(rig.lookup(0xABCD).empty());
  EXPECT_EQ(rig.lists.live_words(), 0u);
  EXPECT_EQ(rig.rvh->entry_count(), 0u);
}

TEST(Rvh, RemoveAncestorDropsItFromDescendantLists) {
  Rig rig;
  rig.insert(0xAB00, 8, 11, 2);
  rig.insert(0xABC0, 12, 12, 8);
  rig.rvh->remove(SegmentPrefix::make(0xAB00, 8), rig.log);
  EXPECT_EQ(rig.lookup(0xABC5), std::vector<u16>{12});
  EXPECT_TRUE(rig.lookup(0xAB05).empty());
}

TEST(Rvh, ClusterRepairUnderHeavyCollision) {
  // depth 8 with 6 same-length prefixes: dense probe clusters, so
  // removals exercise the backward-shift repair; every survivor must
  // stay reachable (no tombstones, no broken probe chains).
  RvhConfig tiny;
  tiny.table_depth = 8;
  Rig rig(tiny);
  const std::array<u16, 6> vals = {0x1100, 0x2200, 0x3300,
                                   0x4400, 0x5500, 0x6600};
  for (usize i = 0; i < vals.size(); ++i) {
    rig.insert(vals[i], 8, static_cast<u16>(i), static_cast<Priority>(i));
  }
  for (usize removed = 0; removed < vals.size(); ++removed) {
    rig.rvh->remove(SegmentPrefix::make(vals[removed], 8), rig.log);
    for (usize i = 0; i < vals.size(); ++i) {
      const auto got = rig.lookup(static_cast<u16>(vals[i] | 0x42));
      if (i <= removed) {
        EXPECT_TRUE(got.empty()) << "removed " << removed << " probe " << i;
      } else {
        EXPECT_EQ(got, std::vector<u16>{static_cast<u16>(i)})
            << "removed " << removed << " probe " << i;
      }
    }
  }
  EXPECT_EQ(rig.rvh->entry_count(), 0u);
}

TEST(Rvh, RefreshReorders) {
  Rig rig;
  rig.insert(0xAB00, 8, 1, 5);
  rig.insert(0, 0, 2, 9);
  EXPECT_EQ(rig.lookup(0xAB42), (std::vector<u16>{1, 2}));
  rig.prio[2] = 1;
  rig.rvh->refresh(SegmentPrefix::make(0, 0), rig.log);
  EXPECT_EQ(rig.lookup(0xAB42), (std::vector<u16>{2, 1}));
}

TEST(Rvh, DuplicateAndUnknownThrow) {
  Rig rig;
  rig.insert(0x1200, 8, 1, 0);
  EXPECT_THROW(
      rig.rvh->insert(SegmentPrefix::make(0x1200, 8), Label{2}, rig.log),
      InternalError);
  EXPECT_THROW(rig.rvh->remove(SegmentPrefix::make(0x3400, 8), rig.log),
               InternalError);
}

TEST(Rvh, CapacityError) {
  RvhConfig tiny;
  tiny.table_depth = 2;
  Rig rig(tiny);
  rig.insert(0x1000, 4, 0, 0);
  rig.insert(0x8000, 4, 1, 1);
  EXPECT_THROW(rig.insert(0x4000, 4, 2, 2), CapacityError);
}

TEST(Rvh, LookupCostScalesWithLiveLengths) {
  Rig rig;
  rig.insert(0xAB00, 8, 1, 1);
  rig.insert(0xABC0, 12, 2, 2);
  // A miss probes every live length group: >= one read per group.
  hw::CycleRecorder rec;
  (void)rig.rvh->lookup(0x0100, &rec);
  EXPECT_GE(rec.memory_accesses(), rig.rvh->live_length_count());
  // A hit at the longest length stops at the first group.
  hw::CycleRecorder hit;
  (void)rig.rvh->lookup(0xABC5, &hit);
  EXPECT_GE(hit.memory_accesses(), 1u);
  EXPECT_LE(hit.memory_accesses(), rec.memory_accesses());
}

class RvhProperty : public ::testing::TestWithParam<u64> {};

TEST_P(RvhProperty, MatchesCoveringOracleWithChurn) {
  Rng rng(GetParam());
  RvhConfig c;
  c.table_depth = 128;  // keep load factor high enough to collide
  Rig rig(c);
  Oracle oracle;
  u16 next_label = 0;
  for (int step = 0; step < 60; ++step) {
    if (!oracle.entries.empty() && rng.chance(0.25)) {
      const usize idx = rng.below(oracle.entries.size());
      rig.rvh->remove(oracle.entries[idx].p, rig.log);
      oracle.entries.erase(oracle.entries.begin() + static_cast<i64>(idx));
      continue;
    }
    const u8 len = static_cast<u8>(rng.below(17));
    const auto p = SegmentPrefix::make(static_cast<u16>(rng.next()), len);
    bool dup = false;
    for (const auto& e : oracle.entries) dup |= e.p == p;
    if (dup) continue;
    const u16 label = next_label++;
    const Priority prio = static_cast<Priority>(rng.below(50));
    rig.insert(p.value, p.length, label, prio);
    oracle.entries.push_back({p, label, prio});
  }
  std::vector<u16> keys;
  for (int i = 0; i < 200; ++i) keys.push_back(static_cast<u16>(rng.next()));
  for (const auto& e : oracle.entries) {
    keys.push_back(e.p.value);
    keys.push_back(static_cast<u16>(e.p.value | mask_low(16u - e.p.length)));
  }
  for (u16 k : keys) {
    EXPECT_EQ(rig.lookup(k), oracle.lookup(k)) << "key=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RvhProperty,
                         ::testing::Values(21, 22, 23, 24, 25, 26));
