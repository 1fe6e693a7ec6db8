// Flow-cache fast path: exact-match semantics and the fill/invalidate
// policy (per-update scans and the full flush). The dataplane's use of
// it (a cached verdict must never outlive a rule change) is tested
// through FlowCacheElement in test_dataplane.
#include <gtest/gtest.h>

#include <vector>

#include "core/flow_cache.hpp"
#include "net/packet.hpp"

using namespace pclass;
using namespace pclass::core;

namespace {

net::FiveTuple tuple(u32 a, u16 p) {
  return {a, a ^ 0xDEADBEEF, 1000, p, net::kProtoTcp};
}

/// A rule matching source address \p a exactly, everything else wild.
ruleset::Rule src_rule(u32 a, u32 id, Priority prio) {
  ruleset::Rule r;
  r.src_ip = ruleset::IpPrefix::make(a, 32);
  r.id = RuleId{id};
  r.priority = prio;
  return r;
}

bool cached(FlowCache& c, const net::FiveTuple& t) {
  return c.lookup(t, nullptr).has_value();
}

constexpr u32 kDepth = 4096;

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

TEST(FlowCache, AddDropsMatchedLinesItBeatsAndMatchedMisses) {
  FlowCache c("c", kDepth);
  c.fill(tuple(1, 80), RuleEntry{RuleId{5}, 10, 0});  // loses to prio 5
  c.fill(tuple(1, 81), std::nullopt);                  // cached miss
  c.fill(tuple(1, 82), RuleEntry{RuleId{3}, 2, 0});   // beats prio 5
  c.fill(tuple(2, 80), RuleEntry{RuleId{9}, 20, 0});  // not matched
  c.fill(tuple(2, 81), std::nullopt);                  // not matched
  for (const u16 p : {80, 81, 82}) ASSERT_TRUE(cached(c, tuple(1, p)));

  EXPECT_EQ(c.invalidate_matching(src_rule(1, 7, 5)), 2u);
  EXPECT_FALSE(cached(c, tuple(1, 80)));
  EXPECT_FALSE(cached(c, tuple(1, 81)));
  EXPECT_TRUE(cached(c, tuple(1, 82)));
  EXPECT_TRUE(cached(c, tuple(2, 80)));
  EXPECT_TRUE(cached(c, tuple(2, 81)));
  EXPECT_EQ(c.stats().lines_invalidated, 2u);
  EXPECT_EQ(c.stats().scan_compares, kDepth);  // one compare per line
  EXPECT_EQ(c.stats().invalidations, 0u);      // not a flush
}

TEST(FlowCache, EqualPriorityAddFollowsTheLowerRuleId) {
  FlowCache c("c", kDepth);
  c.fill(tuple(1, 80), RuleEntry{RuleId{10}, 5, 0});
  EXPECT_EQ(c.invalidate_matching(src_rule(1, 12, 5)), 0u);  // 10 wins
  EXPECT_TRUE(cached(c, tuple(1, 80)));
  EXPECT_EQ(c.invalidate_matching(src_rule(1, 8, 5)), 1u);  // 8 wins
  EXPECT_FALSE(cached(c, tuple(1, 80)));
}

TEST(FlowCache, AddMatchesEveryField) {
  FlowCache c("c", kDepth);
  const net::FiveTuple t{0x0A010203, 0xC0A80001, 1234, 443, net::kProtoUdp};
  ruleset::Rule r;
  r.src_ip = ruleset::IpPrefix::make(0x0A000000, 8);
  r.dst_ip = ruleset::IpPrefix::make(0xC0A80000, 16);
  r.src_port = ruleset::PortRange::make(1024, 65535);
  r.dst_port = ruleset::PortRange::exact(443);
  r.proto = ruleset::ProtoMatch::exact(net::kProtoUdp);
  r.id = RuleId{1};
  ASSERT_TRUE(r.matches(t));
  // Each variant misses the rule in exactly one field.
  std::vector<net::FiveTuple> misses(5, t);
  misses[0].src_ip = 0x0B010203;
  misses[1].dst_ip = 0xC0A90001;
  misses[2].src_port = 1023;
  misses[3].dst_port = 444;
  misses[4].protocol = net::kProtoTcp;
  c.fill(t, std::nullopt);
  for (const net::FiveTuple& m : misses) {
    ASSERT_FALSE(r.matches(m));
    c.fill(m, std::nullopt);
    ASSERT_TRUE(cached(c, m));
  }
  EXPECT_EQ(c.invalidate_matching(r), 1u);
  EXPECT_FALSE(cached(c, t));
  for (const net::FiveTuple& m : misses) EXPECT_TRUE(cached(c, m));
}

TEST(FlowCache, InvalidateRuleDropsOnlyItsVerdicts) {
  FlowCache c("c", kDepth);
  c.fill(tuple(1, 80), RuleEntry{RuleId{5}, 1, 0});
  c.fill(tuple(2, 80), RuleEntry{RuleId{5}, 1, 0});
  c.fill(tuple(3, 80), RuleEntry{RuleId{6}, 1, 0});
  c.fill(tuple(4, 80), std::nullopt);
  EXPECT_EQ(c.invalidate_rule(RuleId{5}), 2u);
  EXPECT_FALSE(cached(c, tuple(1, 80)));
  EXPECT_FALSE(cached(c, tuple(2, 80)));
  EXPECT_TRUE(cached(c, tuple(3, 80)));
  EXPECT_TRUE(cached(c, tuple(4, 80)));
  // A dropped line stays dropped: a second scan finds nothing.
  EXPECT_EQ(c.invalidate_rule(RuleId{5}), 0u);
  EXPECT_EQ(c.stats().lines_invalidated, 2u);
}

TEST(FlowCache, FlushedLinesAreNotScannedAgain) {
  FlowCache c("c", kDepth);
  c.fill(tuple(1, 80), RuleEntry{RuleId{5}, 9, 0});
  c.invalidate_all();
  EXPECT_EQ(c.invalidate_matching(src_rule(1, 7, 1)), 0u);
  EXPECT_EQ(c.invalidate_rule(RuleId{5}), 0u);
}

namespace {

/// The lines of a FlowCache as a test-side model: the flow each line
/// holds and its verdict, with a brute-force pass over every line for
/// each invalidation.
struct LineModel {
  struct Line {
    bool filled = false;
    bool valid = false;
    net::FiveTuple t{};
    std::optional<RuleEntry> v;
  };
  std::vector<Line> lines;
  FlowCacheStats stats;

  explicit LineModel(u32 depth) : lines(depth) {}

  void fill(FlowCache& c, const net::FiveTuple& t,
            const std::optional<RuleEntry>& v) {
    c.fill(t, v);
    lines[c.line(t)] = Line{true, true, t, v};
    ++stats.fills;
  }

  template <class Drop>
  usize drop_if(Drop drop) {
    usize n = 0;
    for (Line& l : lines) {
      if (l.valid && drop(l)) {
        l.valid = false;
        ++n;
      }
    }
    stats.scan_compares += lines.size();
    stats.lines_invalidated += n;
    return n;
  }

  usize invalidate_matching(const ruleset::Rule& r) {
    return drop_if([&](const Line& l) {
      const bool beats =
          l.v && std::pair(l.v->priority, l.v->rule.value) <
                     std::pair(r.priority, r.id.value);
      return r.matches(l.t) && !beats;
    });
  }

  usize invalidate_rule(RuleId id) {
    return drop_if([&](const Line& l) { return l.v && l.v->rule == id; });
  }

  /// Look every filled line's flow up in \p c: it must hit exactly when
  /// the model's line is valid.
  void check(FlowCache& c) {
    for (usize i = 0; i < lines.size(); ++i) {
      const Line& l = lines[i];
      if (!l.filled) continue;
      EXPECT_EQ(cached(c, l.t), l.valid) << "line " << i;
      ++(l.valid ? stats.hits : stats.misses);
    }
    EXPECT_EQ(c.stats(), stats);
  }
};

/// The first of the flows make(0), make(1), ... that \p c caches in
/// line \p line.
template <class Make>
net::FiveTuple flow_at(const FlowCache& c, u32 line, Make make) {
  for (u32 k = 0;; ++k) {
    const net::FiveTuple t = make(k);
    if (c.line(t) == line) return t;
  }
}

}  // namespace

// The scans skip 64-line blocks by one column; over a depth that ends in
// a partial block they must drop exactly the lines a brute-force pass
// over every line drops, with the same counts.
TEST(FlowCache, BlockSkippingScansEqualABruteForcePass) {
  constexpr u32 kOddDepth = 1000;  // blocks of 64, the last one of 40
  FlowCache c("c", kOddDepth);
  LineModel m(kOddDepth);
  // Background: every line holds a flow, hits of rules 100..149 and
  // cached misses, none with the addresses the rules below name.
  for (u32 k = 0; k < 8 * kOddDepth; ++k) {
    const net::FiveTuple t{static_cast<u32>(mix64(k)),
                           static_cast<u32>(mix64(k) >> 32),
                           static_cast<u16>(k), 80, net::kProtoTcp};
    m.fill(c, t,
           k % 3 == 0 ? std::nullopt
                      : std::optional<RuleEntry>(RuleEntry{
                            RuleId{100 + k % 50}, static_cast<Priority>(
                                                      1 + k % 7),
                            0}));
  }
  m.check(c);

  constexpr u32 kSrc = 0x0A000001;
  constexpr u32 kDst = 0xC0A80001;
  // Matches at the last line of a block, the first of the next and the
  // last of the partial block: a verdict the add beats, a cached miss,
  // and an equal-priority verdict of a lower rule id, which is kept.
  const auto place = [&](auto make) {
    m.fill(c, flow_at(c, 63, make), RuleEntry{RuleId{2}, 9, 0});
    m.fill(c, flow_at(c, 64, make), std::nullopt);
    m.fill(c, flow_at(c, 999, make), RuleEntry{RuleId{3}, 5, 0});
  };
  const auto to_dst = [](u32 k) {
    return net::FiveTuple{k * 2654435761u, kDst, static_cast<u16>(k), 80,
                          net::kProtoTcp};
  };
  const auto from_src = [](u32 k) {
    return net::FiveTuple{kSrc, k * 2654435761u, static_cast<u16>(k), 80,
                          net::kProtoTcp};
  };

  // A /32 destination with a /0 source skips by the destination column.
  place(to_dst);
  m.check(c);
  ruleset::Rule dst_only;
  dst_only.dst_ip = ruleset::IpPrefix::make(kDst, 32);
  dst_only.id = RuleId{7};
  dst_only.priority = 5;
  EXPECT_EQ(c.invalidate_matching(dst_only), 2u);
  EXPECT_EQ(m.invalidate_matching(dst_only), 2u);
  EXPECT_TRUE(m.lines[999].valid);  // rule 3 beats rule 7 on the id
  m.check(c);

  // A remove skips by the verdict column.
  EXPECT_EQ(c.invalidate_rule(RuleId{3}), 1u);
  EXPECT_EQ(m.invalidate_rule(RuleId{3}), 1u);
  m.check(c);

  // A /32 source with a /0 destination skips by the source column.
  place(from_src);
  m.check(c);
  EXPECT_EQ(c.invalidate_matching(src_rule(kSrc, 7, 5)), 2u);
  EXPECT_EQ(m.invalidate_matching(src_rule(kSrc, 7, 5)), 2u);
  m.check(c);

  // Both addresses /32 (the destination column is tested): only the flow
  // at line 999 matches both.
  m.fill(c, flow_at(c, 999,
                    [&](u32 k) {
                      return net::FiveTuple{kSrc, kDst, static_cast<u16>(k),
                                            80, net::kProtoTcp};
                    }),
         std::nullopt);
  m.fill(c, flow_at(c, 998, to_dst), std::nullopt);
  ruleset::Rule pair = dst_only;
  pair.src_ip = ruleset::IpPrefix::make(kSrc, 32);
  EXPECT_EQ(c.invalidate_matching(pair), 1u);
  EXPECT_EQ(m.invalidate_matching(pair), 1u);
  m.check(c);

  // Rules spread over every block, then a wildcard-address add, which
  // tests every block.
  for (u32 id = 100; id < 150; id += 7) {
    EXPECT_EQ(c.invalidate_rule(RuleId{id}), m.invalidate_rule(RuleId{id}));
  }
  m.check(c);
  ruleset::Rule any;
  any.id = RuleId{120};
  any.priority = 4;
  EXPECT_EQ(c.invalidate_matching(any), m.invalidate_matching(any));
  m.check(c);
}
