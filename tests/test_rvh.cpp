// Unit + property tests for the range-vector hash engine (the
// incremental-update IP backend): signature bucketing, leaf-pushed
// covering lists, in-place add/remove/modify, cluster repair under
// collisions, batch/scalar identity and the classifier-level epoch
// contract (an RVH bucket update must never let the probe memo serve a
// stale verdict).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "alg/range_vector_hash.hpp"
#include "baseline/linear_search.hpp"
#include "common/error.hpp"
#include "common/random.hpp"
#include "core/classifier.hpp"
#include "workload/profile.hpp"
#include "workload/ruleset_synth.hpp"
#include "workload/trace_synth.hpp"

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

TEST(Rvh, BatchMatchesScalarVerdictAndCost) {
  Rig rig;
  Rng rng(77);
  std::vector<SegmentPrefix> inserted;
  for (u16 i = 0; i < 30; ++i) {
    const u8 len = static_cast<u8>(rng.below(17));
    const auto p = SegmentPrefix::make(static_cast<u16>(rng.next()), len);
    bool dup = false;
    for (const SegmentPrefix& q : inserted) dup |= q == p;
    if (dup) continue;
    rig.insert(p.value, p.length, i, static_cast<Priority>(rng.below(40)));
    inserted.push_back(p);
  }
  // Batch with duplicate keys: replayed lanes must charge exactly the
  // scalar cost and return the same list.
  std::vector<BatchKey> keys;
  for (u32 slot = 0; slot < 64; ++slot) {
    keys.push_back({static_cast<u32>(rng.next() & 0xFFFF) & ~u32{3}, slot});
  }
  sort_batch_keys(keys);
  std::vector<ListRef> refs(keys.size());
  std::vector<hw::CycleRecorder> recs(keys.size());
  rig.rvh->lookup_batch_into(keys, refs, recs);
  for (const BatchKey& lane : keys) {
    hw::CycleRecorder ref_rec;
    const ListRef want =
        rig.rvh->lookup(static_cast<u16>(lane.key), &ref_rec);
    EXPECT_EQ(refs[lane.slot].addr, want.addr) << "key=" << lane.key;
    EXPECT_EQ(recs[lane.slot].memory_accesses(), ref_rec.memory_accesses())
        << "key=" << lane.key;
    EXPECT_EQ(recs[lane.slot].cycles(), ref_rec.cycles())
        << "key=" << lane.key;
  }
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

// ---- classifier-level epoch contract (the satellite-3 audit's test) ------

// Every RVH mutation is an in-place bucket update, not a rebuild — if
// any of them skipped the device-epoch bump, a persistent probe memo
// would keep serving the pre-update combination. Classify with a
// persistent memo, mutate, classify the same headers again: verdicts
// must track a freshly built LinearSearch oracle and the epoch must
// move on every mutation.
TEST(RvhEpoch, InPlaceBucketUpdateNeverServesStaleMemoEntry) {
  workload::RulesetProfile rp = workload::RulesetProfile::by_family(
      "fw", 64, /*seed=*/0xE50C);
  ruleset::RuleSet rules = workload::synthesize(rp);
  net::Trace trace;
  {
    workload::TraceSynthesizer ts(
        rules, workload::TraceProfile::zipf_heavy(256, 0xE50C ^ 1));
    trace = ts.generate();
  }

  core::ClassifierConfig cfg =
      core::ClassifierConfig::for_scale(rules.size() + 64);
  cfg.combine_mode = core::CombineMode::kCrossProduct;
  cfg.ip_algorithm = core::IpAlgorithm::kRvh;
  cfg.batch_probe_memo = true;
  cfg.batch_memo_slots = 16;  // maximal collision pressure
  cfg.batch_path_policy = core::PathPolicy::kForcePhase2;
  core::ConfigurableClassifier clf(cfg);
  clf.add_rules(rules);

  core::BatchScratch scratch;
  std::vector<net::FiveTuple> in;
  std::vector<core::ClassifyResult> out;
  for (const net::TraceEntry& e : trace) in.push_back(e.header);
  out.assign(in.size(), {});

  const auto check_against_oracle = [&]() {
    ruleset::RuleSet rs("oracle");
    for (const ruleset::Rule& r : clf.installed_rules()) rs.add_verbatim(r);
    const baseline::LinearSearch oracle(rs);
    clf.classify_batch(in, out, scratch);
    for (usize k = 0; k < in.size(); ++k) {
      const ruleset::Rule* want = oracle.classify(in[k], nullptr);
      ASSERT_EQ(out[k].match.has_value(), want != nullptr) << "pkt " << k;
      if (want != nullptr) {
        ASSERT_EQ(out[k].match->rule, want->id) << "pkt " << k;
      }
    }
  };

  check_against_oracle();  // warm the memo
  Rng rng(0xE50C ^ 2);
  u64 epoch = clf.device_epoch();
  for (int round = 0; round < 8; ++round) {
    const auto installed = clf.installed_rules();
    ASSERT_GT(installed.size(), 8u);
    const ruleset::Rule victim = installed[rng.below(installed.size())];
    if (round % 2 == 0) {
      clf.remove_rule(victim.id);
    } else {
      clf.modify_rule(victim.id,
                      ruleset::Action{static_cast<u32>(rng.below(0xFFFF))});
    }
    // The audit's pin: an RVH in-place update bumps the epoch exactly
    // like the trie paths do.
    ASSERT_GT(clf.device_epoch(), epoch) << "round " << round;
    epoch = clf.device_epoch();
    check_against_oracle();
  }
}
