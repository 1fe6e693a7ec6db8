// Unit + property tests for the multi-bit trie engine: lookups are
// checked against a naive covering-prefix oracle over random prefix
// sets, incremental updates against from-scratch rebuilds.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "alg/multibit_trie.hpp"
#include "common/error.hpp"
#include "common/random.hpp"

using namespace pclass;
using namespace pclass::alg;
using pclass::ruleset::SegmentPrefix;

namespace {

/// Test fixture: a trie + list store + its priority column (labels
/// sorted by priority, then value).
struct Rig {
  /// Label value -> priority: the engine's priority column.
  std::vector<Priority> prio =
      std::vector<Priority>(usize{1} << kIpLabelBits, kNoPriority);
  LabelListStore lists{"lists", 2048, kIpLabelBits};
  MbtConfig cfg;
  std::unique_ptr<MultiBitTrie> trie;
  hw::CommandLog log;

  explicit Rig(MbtConfig c = {}) : cfg(std::move(c)) {
    trie = std::make_unique<MultiBitTrie>("t", cfg, lists, prio.data());
  }

  void insert(u16 value, u8 len, u16 label, Priority p) {
    prio[label] = p;
    trie->insert(SegmentPrefix::make(value, len), Label{label}, log);
  }
  void remove(u16 value, u8 len) {
    trie->remove(SegmentPrefix::make(value, len), log);
  }

  std::vector<u16> lookup(u16 key) {
    hw::CycleRecorder rec;
    const ListRef r = trie->lookup(key, &rec);
    std::vector<u16> out;
    for (Label l : lists.read_list(r, &rec)) {
      out.push_back(l.value);
    }
    return out;
  }
};

/// Naive oracle: all (prefix, label) pairs covering key, sorted by
/// (priority, label).
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

TEST(Mbt, EmptyTrieMissesEverything) {
  Rig rig;
  EXPECT_TRUE(rig.lookup(0).empty());
  EXPECT_TRUE(rig.lookup(0xFFFF).empty());
}

TEST(Mbt, SinglePrefixCoversItsSpan) {
  Rig rig;
  rig.insert(0xAB00, 8, 1, 0);
  EXPECT_EQ(rig.lookup(0xAB12), std::vector<u16>{1});
  EXPECT_EQ(rig.lookup(0xABFF), std::vector<u16>{1});
  EXPECT_TRUE(rig.lookup(0xAC00).empty());
}

TEST(Mbt, WildcardReachesAllKeys) {
  Rig rig;
  rig.insert(0, 0, 7, 3);
  EXPECT_EQ(rig.lookup(0x1234), std::vector<u16>{7});
  EXPECT_EQ(rig.lookup(0), std::vector<u16>{7});
}

TEST(Mbt, NestedPrefixesInPriorityOrder) {
  Rig rig;
  rig.insert(0, 0, 10, 5);          // wildcard, prio 5
  rig.insert(0xAB00, 8, 11, 2);     // /8, prio 2
  rig.insert(0xABC0, 12, 12, 8);    // /12, prio 8
  // Key covered by all three; order by priority: 11(2), 10(5), 12(8).
  EXPECT_EQ(rig.lookup(0xABC5), (std::vector<u16>{11, 10, 12}));
  // Key covered by wildcard + /8 only.
  EXPECT_EQ(rig.lookup(0xAB00), (std::vector<u16>{11, 10}));
}

TEST(Mbt, LeafPushedListAtDeepestEntry) {
  Rig rig;
  rig.insert(0xAB00, 8, 1, 1);   // anchored at level 1 (5 < 8 <= 10)
  rig.insert(0xABCD, 16, 2, 2);  // anchored at level 2
  hw::CycleRecorder rec;
  const ListRef r = rig.trie->lookup(0xABCD, &rec);
  // Deepest entry's list carries the ancestor label too.
  const auto labels = rig.lists.read_list(r, nullptr);
  ASSERT_EQ(labels.size(), 2u);
  EXPECT_EQ(labels[0].value, 1u);
  EXPECT_EQ(labels[1].value, 2u);
  // Lookup visited 3 levels at 2 cycles each.
  EXPECT_EQ(rec.memory_accesses(), 3u);
  EXPECT_EQ(rec.cycles(), 6u);
}

TEST(Mbt, LookupStopsEarlyWithoutChildren) {
  Rig rig;
  rig.insert(0x8000, 1, 3, 0);  // level-0 anchored only
  hw::CycleRecorder rec;
  (void)rig.trie->lookup(0x8000, &rec);
  EXPECT_EQ(rec.memory_accesses(), 1u);  // root only, no children
}

TEST(Mbt, RemoveRestoresPreviousAnswers) {
  Rig rig;
  rig.insert(0xAB00, 8, 1, 1);
  rig.insert(0xABCD, 16, 2, 2);
  rig.remove(0xABCD, 16);
  EXPECT_EQ(rig.lookup(0xABCD), std::vector<u16>{1});
  rig.remove(0xAB00, 8);
  EXPECT_TRUE(rig.lookup(0xABCD).empty());
}

TEST(Mbt, PruneReclaimsNodesAndLists) {
  Rig rig;
  const usize base_nodes1 = rig.trie->node_count(1);
  rig.insert(0xABCD, 16, 1, 0);
  EXPECT_GT(rig.trie->node_count(1), base_nodes1);
  EXPECT_GT(rig.lists.live_words(), 0u);
  rig.remove(0xABCD, 16);
  EXPECT_EQ(rig.trie->node_count(1), base_nodes1);
  EXPECT_EQ(rig.trie->node_count(2), 0u);
  EXPECT_EQ(rig.lists.live_words(), 0u);  // every list released
}

TEST(Mbt, RefreshReordersAfterPriorityChange) {
  Rig rig;
  rig.insert(0xAB00, 8, 1, 5);
  rig.insert(0, 0, 2, 9);
  EXPECT_EQ(rig.lookup(0xAB42), (std::vector<u16>{1, 2}));
  // The wildcard's label becomes highest priority.
  rig.prio[2] = 1;
  rig.trie->refresh(SegmentPrefix::make(0, 0), rig.log);
  EXPECT_EQ(rig.lookup(0xAB42), (std::vector<u16>{2, 1}));
}

TEST(Mbt, DuplicateInsertAndUnknownRemoveThrow) {
  Rig rig;
  rig.insert(0x1200, 8, 1, 0);
  EXPECT_THROW(
      rig.trie->insert(SegmentPrefix::make(0x1200, 8), Label{9}, rig.log),
      InternalError);
  EXPECT_THROW(rig.trie->remove(SegmentPrefix::make(0x3400, 8), rig.log),
               InternalError);
}

TEST(Mbt, ClearEmptiesEverything) {
  Rig rig;
  rig.insert(0xABCD, 16, 1, 0);
  rig.insert(0, 0, 2, 1);
  rig.trie->clear(rig.log);
  EXPECT_TRUE(rig.lookup(0xABCD).empty());
  EXPECT_EQ(rig.lists.live_words(), 0u);
  EXPECT_EQ(rig.trie->prefix_count(), 0u);
  // Reusable after clear.
  rig.insert(0xABCD, 16, 3, 0);
  EXPECT_EQ(rig.lookup(0xABCD), std::vector<u16>{3});
}

TEST(Mbt, ConfigValidation) {
  LabelListStore lists("l", 64, kIpLabelBits);
  const std::vector<Priority> prio(usize{1} << kIpLabelBits, 0);
  MbtConfig bad1;
  bad1.strides = {5, 5, 5};  // sums to 15
  EXPECT_THROW(MultiBitTrie("t", bad1, lists, prio.data()), ConfigError);
  MbtConfig bad2;
  bad2.level_capacity = {1, 2};  // size mismatch
  EXPECT_THROW(MultiBitTrie("t", bad2, lists, prio.data()), ConfigError);
  MbtConfig ok;
  EXPECT_THROW(MultiBitTrie("t", ok, lists, nullptr), ConfigError);
}

TEST(Mbt, CapacityErrorWhenPoolExhausted) {
  MbtConfig tiny;
  tiny.level_capacity = {1, 1, 1};
  Rig rig(tiny);
  rig.insert(0x0100, 16, 1, 0);  // uses the single L1+L2 node chain
  // A 16-bit prefix under a different root entry needs a second L1 node.
  EXPECT_THROW(rig.insert(0xFF00, 16, 2, 0), CapacityError);
}

TEST(Mbt, FailedInsertFreesTheNodesItsWalkCreated) {
  MbtConfig cfg;
  cfg.level_capacity = {1, 4, 1};
  Rig rig(cfg);
  rig.insert(0x0100, 16, 1, 0);  // takes the only L2 node
  ASSERT_EQ(rig.trie->node_count(1), 1u);
  // Each /16 under a fresh root entry gets an L1 node, then finds the L2
  // pool full: that L1 node must not stay behind.
  for (u16 k = 1; k <= 3; ++k) {
    EXPECT_THROW(rig.insert(static_cast<u16>(k << 11 | 0x0100), 16,
                            static_cast<u16>(10 + k), 0),
                 CapacityError);
    EXPECT_EQ(rig.trie->node_count(1), 1u);
  }
  // So a /10, which needs one L1 node and no L2 node, still fits.
  rig.insert(0xF800, 10, 20, 0);
  EXPECT_EQ(rig.trie->node_count(1), 2u);
  EXPECT_EQ(rig.lookup(0xF812), std::vector<u16>{20});
  EXPECT_EQ(rig.lookup(0x0100), std::vector<u16>{1});
}

TEST(Mbt, StoreFullMidLeafPushLeavesTrieAsItWas) {
  // A label-list store that fills part-way through an insert's leaf push
  // must leave the node pools, the store and every lookup as they were,
  // so the same prefix goes in once there is room.
  std::vector<Priority> prio(usize{1} << kIpLabelBits, kNoPriority);
  prio[1] = 5;
  prio[2] = 0;
  prio[3] = 0;
  LabelListStore lists("lists", 4, kIpLabelBits);
  MultiBitTrie trie("t", MbtConfig{}, lists, prio.data());
  hw::CommandLog log;
  const auto lookup = [&](u16 key) {
    std::vector<u16> out;
    for (Label l : lists.read_list(trie.lookup(key, nullptr), nullptr)) {
      out.push_back(l.value);
    }
    return out;
  };
  trie.insert(SegmentPrefix::make(0x0000, 4), Label{1}, log);   // [1]
  trie.insert(SegmentPrefix::make(0x0100, 16), Label{2}, log);  // [2 1]
  ASSERT_EQ(lists.live_words(), 3u);
  const auto occupancy = [&] {
    return std::array<u64, 5>{trie.node_count(1), trie.node_count(2),
                              trie.prefix_count(), lists.live_words(),
                              lists.total_references()};
  };
  const auto before = occupancy();

  // A /16 under a fresh level-1 entry: its walk leaf-pushes [1] into a
  // new level-2 node, then [3 1] needs two words where one is left.
  EXPECT_THROW(trie.insert(SegmentPrefix::make(0x0200, 16), Label{3}, log),
               CapacityError);
  EXPECT_EQ(occupancy(), before);
  EXPECT_EQ(lookup(0x0200), std::vector<u16>{1});
  EXPECT_EQ(lookup(0x0100), (std::vector<u16>{2, 1}));

  trie.remove(SegmentPrefix::make(0x0100, 16), log);
  trie.insert(SegmentPrefix::make(0x0200, 16), Label{3}, log);
  EXPECT_EQ(lookup(0x0200), (std::vector<u16>{3, 1}));
  EXPECT_EQ(lookup(0x0100), std::vector<u16>{1});
}

TEST(Mbt, MemoryAccounting) {
  Rig rig;
  EXPECT_GT(rig.trie->capacity_bits(), 0u);
  const u64 empty_bits = rig.trie->live_node_bits();
  rig.insert(0xABCD, 16, 1, 0);
  EXPECT_GT(rig.trie->live_node_bits(), empty_bits);
  EXPECT_LE(rig.trie->live_node_bits(), rig.trie->capacity_bits());
}

TEST(Mbt, UpdateCommandsAreLocal) {
  // A host (/16) insert under an existing subtree must touch only the
  // covered entries, not the whole trie.
  Rig rig;
  rig.insert(0xAB00, 8, 1, 1);
  const usize before = rig.log.size();
  rig.insert(0xABCD, 16, 2, 2);  // creates one L3 node + 1 entry update
  const usize delta = rig.log.size() - before;
  // L3 node init (64 entries) + parent pointer + covered entry + lists.
  EXPECT_LE(delta, 64u + 8u + 4u);
}

// ---- Property sweep: random prefix sets vs the oracle ----

class MbtProperty : public ::testing::TestWithParam<u64> {};

TEST_P(MbtProperty, MatchesCoveringOracleWithChurn) {
  Rng rng(GetParam());
  Rig rig;
  Oracle oracle;
  u16 next_label = 0;

  // Random inserts with occasional removals.
  for (int step = 0; step < 120; ++step) {
    if (!oracle.entries.empty() && rng.chance(0.25)) {
      const usize idx = rng.below(oracle.entries.size());
      rig.trie->remove(oracle.entries[idx].p, rig.log);
      oracle.entries.erase(oracle.entries.begin() +
                           static_cast<i64>(idx));
      continue;
    }
    const u8 len = static_cast<u8>(rng.below(17));
    const auto p =
        SegmentPrefix::make(static_cast<u16>(rng.next()), len);
    bool dup = false;
    for (const auto& e : oracle.entries) {
      dup |= e.p == p;
    }
    if (dup) continue;
    const u16 label = next_label++;
    const Priority prio = static_cast<Priority>(rng.below(50));
    rig.insert(p.value, p.length, label, prio);
    oracle.entries.push_back({p, label, prio});
  }

  // Probe random keys plus every prefix boundary.
  std::vector<u16> keys;
  for (int i = 0; i < 200; ++i) {
    keys.push_back(static_cast<u16>(rng.next()));
  }
  for (const auto& e : oracle.entries) {
    keys.push_back(e.p.value);
    keys.push_back(static_cast<u16>(
        e.p.value | mask_low(16u - e.p.length)));
  }
  for (u16 k : keys) {
    EXPECT_EQ(rig.lookup(k), oracle.lookup(k)) << "key=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MbtProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));
