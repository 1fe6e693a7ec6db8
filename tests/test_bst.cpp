// Unit + property tests for the balanced-BST engine (the compact IP
// option): interval construction, balanced depth, rebuild-based updates.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "alg/binary_search_tree.hpp"
#include "common/error.hpp"
#include "common/random.hpp"

using namespace pclass;
using namespace pclass::alg;
using pclass::ruleset::SegmentPrefix;

namespace {

struct Rig {
  /// Label value -> priority: the engine's priority column.
  std::vector<Priority> prio =
      std::vector<Priority>(usize{1} << kIpLabelBits, kNoPriority);
  LabelListStore lists{"lists", 4096, kIpLabelBits};
  std::unique_ptr<BinarySearchTree> bst;
  hw::CommandLog log;

  explicit Rig(BstConfig c = {}) {
    bst = std::make_unique<BinarySearchTree>(
        "t", c, lists, prio.data());
  }

  void insert(u16 value, u8 len, u16 label, Priority p) {
    prio[label] = p;
    bst->insert(SegmentPrefix::make(value, len), Label{label}, log);
  }
  std::vector<u16> lookup(u16 key) {
    hw::CycleRecorder rec;
    std::vector<u16> out;
    for (Label l : lists.read_list(bst->lookup(key, &rec), &rec)) {
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

TEST(Bst, EmptyMisses) {
  Rig rig;
  EXPECT_TRUE(rig.lookup(0x1234).empty());
  EXPECT_EQ(rig.bst->node_count(), 0u);
}

TEST(Bst, SinglePrefix) {
  Rig rig;
  rig.insert(0xAB00, 8, 1, 0);
  EXPECT_EQ(rig.lookup(0xAB42), std::vector<u16>{1});
  EXPECT_TRUE(rig.lookup(0xAC00).empty());
  EXPECT_TRUE(rig.lookup(0x0000).empty());
}

TEST(Bst, NestedPrefixesPriorityOrder) {
  Rig rig;
  rig.insert(0, 0, 10, 5);
  rig.insert(0xAB00, 8, 11, 2);
  rig.insert(0xABC0, 12, 12, 8);
  EXPECT_EQ(rig.lookup(0xABC5), (std::vector<u16>{11, 10, 12}));
  EXPECT_EQ(rig.lookup(0xAB00), (std::vector<u16>{11, 10}));
  EXPECT_EQ(rig.lookup(0x0001), std::vector<u16>{10});
}

TEST(Bst, IntervalCountIsElementary) {
  Rig rig;
  rig.insert(0xAB00, 8, 1, 0);
  // Intervals: [0, AAFF], [AB00, ABFF], [AC00, FFFF] -> 3 nodes.
  EXPECT_EQ(rig.bst->node_count(), 3u);
  rig.insert(0, 0, 2, 1);  // wildcard adds no boundary
  EXPECT_EQ(rig.bst->node_count(), 3u);
}

TEST(Bst, DepthIsLogarithmic) {
  Rig rig;
  // 32 disjoint /8 prefixes -> 32+ intervals; depth ~ log2.
  for (u16 i = 0; i < 32; ++i) {
    rig.insert(static_cast<u16>(i << 11), 5, static_cast<u16>(i), i);
  }
  EXPECT_LE(rig.bst->depth(), 6u);
  hw::CycleRecorder rec;
  (void)rig.bst->lookup(0x0800, &rec);
  EXPECT_LE(rec.memory_accesses(), rig.bst->depth());
  EXPECT_GE(rec.memory_accesses(), 1u);
}

TEST(Bst, SixteenAccessWorstCaseBound) {
  // The paper budgets 16 accesses/packet: even a dense set of host
  // prefixes stays within ceil(log2(n)) <= 16 for any segment content.
  Rig rig;
  Rng rng(3);
  for (u16 i = 0; i < 500; ++i) {
    const u16 v = static_cast<u16>(rng.next());
    if (rig.bst->prefix_count() !=
        (rig.insert(v, 16, i, i), rig.bst->prefix_count())) {
    }
    if (rig.bst->prefix_count() >= 400) break;
  }
  hw::CycleRecorder rec;
  u64 worst = 0;
  for (u32 k = 0; k < 2000; k += 17) {
    hw::CycleRecorder r;
    (void)rig.bst->lookup(static_cast<u16>(k * 31), &r);
    worst = std::max(worst, r.memory_accesses());
  }
  EXPECT_LE(worst, 16u);
}

TEST(Bst, RemoveRestores) {
  Rig rig;
  rig.insert(0xAB00, 8, 1, 1);
  rig.insert(0xABCD, 16, 2, 2);
  rig.bst->remove(SegmentPrefix::make(0xABCD, 16), rig.log);
  EXPECT_EQ(rig.lookup(0xABCD), std::vector<u16>{1});
  rig.bst->remove(SegmentPrefix::make(0xAB00, 8), rig.log);
  EXPECT_TRUE(rig.lookup(0xABCD).empty());
  EXPECT_EQ(rig.lists.live_words(), 0u);
  EXPECT_EQ(rig.bst->node_count(), 0u);
}

TEST(Bst, BulkEqualsIncremental) {
  Rig inc, bulk;
  std::vector<std::pair<SegmentPrefix, Label>> batch;
  Rng rng(9);
  for (u16 i = 0; i < 40; ++i) {
    const u8 len = static_cast<u8>(rng.below(17));
    const auto p = SegmentPrefix::make(static_cast<u16>(rng.next()), len);
    bool dup = false;
    for (const auto& [q, l] : batch) dup |= q == p;
    if (dup) continue;
    inc.prio[i] = i;
    bulk.prio[i] = i;
    inc.bst->insert(p, Label{i}, inc.log);
    batch.emplace_back(p, Label{i});
  }
  bulk.bst->insert_bulk(batch, bulk.log);
  for (u32 k = 0; k <= 0xFFFF; k += 97) {
    EXPECT_EQ(inc.lookup(static_cast<u16>(k)),
              bulk.lookup(static_cast<u16>(k)));
  }
  // The bulk path writes each final word once; incremental rebuilds
  // repeatedly — compact-update weakness measured.
  EXPECT_LT(bulk.log.size(), inc.log.size());
}

TEST(Bst, RefreshReorders) {
  Rig rig;
  rig.insert(0xAB00, 8, 1, 5);
  rig.insert(0, 0, 2, 9);
  EXPECT_EQ(rig.lookup(0xAB42), (std::vector<u16>{1, 2}));
  rig.prio[2] = 1;
  rig.bst->refresh(SegmentPrefix::make(0, 0), rig.log);
  EXPECT_EQ(rig.lookup(0xAB42), (std::vector<u16>{2, 1}));
}

TEST(Bst, DuplicateAndUnknownThrow) {
  Rig rig;
  rig.insert(0x1200, 8, 1, 0);
  EXPECT_THROW(
      rig.bst->insert(SegmentPrefix::make(0x1200, 8), Label{2}, rig.log),
      InternalError);
  EXPECT_THROW(rig.bst->remove(SegmentPrefix::make(0x3400, 8), rig.log),
               InternalError);
}

TEST(Bst, CapacityError) {
  BstConfig tiny;
  tiny.max_nodes = 4;
  Rig rig(tiny);
  rig.insert(0x1000, 4, 0, 0);  // 3 intervals
  EXPECT_THROW(rig.insert(0x8000, 4, 1, 1), CapacityError);  // 5 intervals
}

TEST(Bst, MemoryIsCompact) {
  // BST node storage is one word per interval — far less than the MBT's
  // expanded entry arrays for the same prefix set (Table VI's trade).
  Rig rig;
  for (u16 i = 0; i < 20; ++i) {
    rig.insert(static_cast<u16>(0x1000 + (i << 4)), 12, i, i);
  }
  EXPECT_EQ(rig.bst->live_node_bits(),
            u64{rig.bst->node_count()} * rig.bst->memory().word_bits());
  EXPECT_LE(rig.bst->node_count(), 2u * 20u + 1u);
}

class BstProperty : public ::testing::TestWithParam<u64> {};

TEST_P(BstProperty, MatchesCoveringOracleWithChurn) {
  Rng rng(GetParam());
  Rig rig;
  Oracle oracle;
  u16 next_label = 0;
  for (int step = 0; step < 60; ++step) {
    if (!oracle.entries.empty() && rng.chance(0.25)) {
      const usize idx = rng.below(oracle.entries.size());
      rig.bst->remove(oracle.entries[idx].p, rig.log);
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

INSTANTIATE_TEST_SUITE_P(Seeds, BstProperty,
                         ::testing::Values(11, 12, 13, 14, 15, 16));
