// Cross-cutting property sweeps: engine equivalence under arbitrary
// stride plans, MBT-vs-BST agreement, rule-filter churn, and Key68
// against a 128-bit reference implementation.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "alg/binary_search_tree.hpp"
#include "alg/multibit_trie.hpp"
#include "common/random.hpp"
#include "core/rule_filter.hpp"
#include "ruleset/rule.hpp"

using namespace pclass;
using namespace pclass::alg;
using pclass::ruleset::SegmentPrefix;

namespace {

/// Shared fixture: an MBT with a given stride plan and a BST over the
/// same (prefix, label, priority) population.
struct DualRig {
  /// Label value -> priority: both engines' priority column.
  std::vector<Priority> prio =
      std::vector<Priority>(usize{1} << kIpLabelBits, kNoPriority);
  LabelListStore mbt_lists{"ml", 4096, kIpLabelBits};
  LabelListStore bst_lists{"bl", 4096, kIpLabelBits};
  std::unique_ptr<MultiBitTrie> mbt;
  std::unique_ptr<BinarySearchTree> bst;
  hw::CommandLog log;

  explicit DualRig(std::vector<unsigned> strides,
                   std::vector<u32> capacity) {
    MbtConfig mc;
    mc.strides = std::move(strides);
    mc.level_capacity = std::move(capacity);
    mbt = std::make_unique<MultiBitTrie>("m", mc, mbt_lists, prio.data());
    bst = std::make_unique<BinarySearchTree>("b", BstConfig{}, bst_lists,
                                             prio.data());
  }

  void insert(SegmentPrefix p, u16 label, Priority pr) {
    prio[label] = pr;
    mbt->insert(p, Label{label}, log);
    bst->insert(p, Label{label}, log);
  }
  void remove(SegmentPrefix p) {
    mbt->remove(p, log);
    bst->remove(p, log);
  }

  std::vector<u16> lookup_mbt(u16 key) {
    std::vector<u16> out;
    for (Label l : mbt_lists.read_list(mbt->lookup(key, nullptr), nullptr))
      out.push_back(l.value);
    return out;
  }
  std::vector<u16> lookup_bst(u16 key) {
    std::vector<u16> out;
    for (Label l : bst_lists.read_list(bst->lookup(key, nullptr), nullptr))
      out.push_back(l.value);
    return out;
  }
};

struct PlanParam {
  std::vector<unsigned> strides;
  std::vector<u32> capacity;
};

}  // namespace

class EnginePlanEquivalence : public ::testing::TestWithParam<int> {
 protected:
  static PlanParam plan(int idx) {
    switch (idx) {
      case 0: return {{5, 5, 6}, {1, 256, 1024}};
      case 1: return {{4, 4, 4, 4}, {1, 64, 512, 1024}};
      case 2: return {{8, 8}, {1, 512}};
      case 3: return {{2, 7, 7}, {1, 16, 1024}};
      default: return {{6, 5, 5}, {1, 128, 1024}};
    }
  }
};

TEST_P(EnginePlanEquivalence, MbtEqualsBstUnderChurn) {
  // Two completely different structures over the same data must answer
  // identically at every key, for every stride plan, across churn.
  const PlanParam p = plan(GetParam());
  DualRig rig(p.strides, p.capacity);
  Rng rng(static_cast<u64>(GetParam()) * 97 + 5);
  std::vector<SegmentPrefix> live;
  u16 next_label = 0;

  for (int step = 0; step < 80; ++step) {
    if (!live.empty() && rng.chance(0.3)) {
      const usize i = rng.below(live.size());
      rig.remove(live[i]);
      live.erase(live.begin() + static_cast<i64>(i));
    } else {
      const auto pre = SegmentPrefix::make(
          static_cast<u16>(rng.next()), static_cast<u8>(rng.below(17)));
      if (std::find(live.begin(), live.end(), pre) != live.end()) continue;
      rig.insert(pre, next_label, static_cast<Priority>(rng.below(40)));
      ++next_label;
      live.push_back(pre);
    }
    if (step % 10 == 9) {
      for (int k = 0; k < 64; ++k) {
        const u16 key = static_cast<u16>(rng.next());
        ASSERT_EQ(rig.lookup_mbt(key), rig.lookup_bst(key))
            << "plan " << GetParam() << " key " << key;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Plans, EnginePlanEquivalence,
                         ::testing::Values(0, 1, 2, 3, 4));

TEST(RuleFilterChurn, RandomInsertDeleteLookupProperty) {
  // The filter must behave exactly like a map<Key68, RuleEntry> under a
  // random operation stream, including tombstone interactions.
  core::RuleFilter f("f", 512, 64, 99);
  std::map<std::pair<u8, u64>, core::RuleEntry> shadow;
  Rng rng(123);
  hw::CommandLog log;

  auto random_key = [&] {
    // Small key space so deletes/reinserts collide with history.
    return Key68{static_cast<u8>(rng.below(2)), rng.below(300)};
  };

  for (int step = 0; step < 4000; ++step) {
    const Key68 k = random_key();
    const auto sk = std::make_pair(k.hi4(), k.lo64());
    const double dice = rng.uniform();
    if (dice < 0.45) {
      if (!shadow.contains(sk) && shadow.size() < 256) {
        const core::RuleEntry e{RuleId{static_cast<u32>(rng.below(1000))},
                                static_cast<Priority>(rng.below(1000)),
                                static_cast<u32>(rng.below(1000))};
        f.insert(k, e, log);
        shadow.emplace(sk, e);
      }
    } else if (dice < 0.7) {
      if (shadow.contains(sk)) {
        f.remove(k, log);
        shadow.erase(sk);
      }
    } else {
      const auto got = f.lookup(k, nullptr);
      const auto it = shadow.find(sk);
      ASSERT_EQ(got.has_value(), it != shadow.end()) << "step " << step;
      if (got) {
        EXPECT_EQ(*got, it->second);
      }
    }
  }
  EXPECT_EQ(f.size(), shadow.size());
  // Final full sweep.
  for (const auto& [sk, e] : shadow) {
    const auto got = f.lookup(Key68{sk.first, sk.second}, nullptr);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, e);
  }
}

TEST(Key68Property, MatchesWideReference) {
  // shifted_in over random field sequences must equal 128-bit shifts.
  Rng rng(7);
  for (int trial = 0; trial < 2000; ++trial) {
    Key68 k;
    unsigned __int128 ref = 0;
    unsigned used = 0;
    while (used < 68) {
      const unsigned w = std::min<unsigned>(
          static_cast<unsigned>(rng.between(1, 17)), 68 - used);
      const u64 field = rng.next() & mask_low(w);
      k = k.shifted_in(field, w);
      ref = (ref << w) | field;
      used += w;
    }
    EXPECT_EQ(k.lo64(), static_cast<u64>(ref));
    EXPECT_EQ(k.hi4(), static_cast<u8>((ref >> 64) & 0xF));
  }
}

TEST(SegmentProperty, HiLoSegmentsPartitionEveryPrefix) {
  // For every prefix length, (hi, lo) segment matching of a random
  // address must equal whole-prefix matching.
  Rng rng(31);
  for (int trial = 0; trial < 5000; ++trial) {
    const u8 len = static_cast<u8>(rng.below(33));
    const auto p = ruleset::IpPrefix::make(static_cast<u32>(rng.next()),
                                           len);
    const u32 addr = rng.chance(0.5)
                         ? (p.value | (static_cast<u32>(rng.next()) &
                                       static_cast<u32>(
                                           mask_low(32u - len))))
                         : static_cast<u32>(rng.next());
    const bool whole = p.matches(addr);
    const bool split = p.hi_segment().matches(ip_hi16(addr)) &&
                       p.lo_segment().matches(ip_lo16(addr));
    ASSERT_EQ(whole, split)
        << "prefix " << p.value << "/" << unsigned{len} << " addr "
        << addr;
  }
}

TEST(ListStoreProperty, RefcountNeverLeaksUnderChurn) {
  LabelListStore s("s", 512, kIpLabelBits);
  hw::CommandLog log;
  Rng rng(17);
  std::vector<std::pair<ListRef, std::vector<Label>>> live;
  for (int step = 0; step < 3000; ++step) {
    if (!live.empty() && rng.chance(0.5)) {
      const usize i = rng.below(live.size());
      // Content must still read back before release.
      ASSERT_TRUE(std::ranges::equal(s.read_list(live[i].first, nullptr),
                                     live[i].second));
      s.release(live[i].first);
      live.erase(live.begin() + static_cast<i64>(i));
    } else {
      std::vector<Label> list;
      const usize len = 1 + rng.below(4);
      for (usize j = 0; j < len; ++j) {
        list.push_back(Label{static_cast<u16>(rng.below(64))});
      }
      try {
        const ListRef r = s.acquire(list, log);
        live.emplace_back(r, std::move(list));
      } catch (const CapacityError&) {
        // fine under churn with a tiny store
      }
    }
  }
  for (auto& [r, list] : live) {
    s.release(r);
  }
  EXPECT_EQ(s.live_words(), 0u);
  EXPECT_EQ(s.distinct_lists(), 0u);
  EXPECT_EQ(s.total_references(), 0u);
}
