// OpenFlow MODIFY semantics and the controller's automatic hash-reseed
// recovery (extensions over the paper's baseline update path).
#include <gtest/gtest.h>

#include "core/classifier.hpp"
#include "core/rule_filter.hpp"
#include "dataplane/rule_program.hpp"
#include "ruleset/generator.hpp"
#include "ruleset/trace_gen.hpp"

using namespace pclass;
using namespace pclass::core;
using pclass::ruleset::Rule;
using pclass::ruleset::RuleSet;

namespace {

Rule port_rule(u32 id, u16 port, u32 action_token) {
  Rule r;
  r.id = RuleId{id};
  r.priority = id;
  r.dst_port = ruleset::PortRange::exact(port);
  r.proto = ruleset::ProtoMatch::exact(net::kProtoTcp);
  r.action = ruleset::Action{action_token};
  return r;
}

net::FiveTuple header_for_port(u16 port) {
  return {ipv4(1, 2, 3, 4), ipv4(5, 6, 7, 8), 999, port, net::kProtoTcp};
}

}  // namespace

TEST(ModifyRule, RewritesActionInPlace) {
  ConfigurableClassifier clf;
  clf.add_rule(port_rule(1, 80, 7));
  ASSERT_EQ(clf.classify(header_for_port(80)).match->action, 7u);

  const auto cost = clf.modify_rule(RuleId{1}, ruleset::Action{42});
  EXPECT_EQ(clf.classify(header_for_port(80)).match->action, 42u);
  // As cheap as a label-hit insert: hash + two-beat rewrite.
  EXPECT_EQ(cost.cycles, 3u);
  EXPECT_EQ(cost.memory_writes, 2u);
  EXPECT_EQ(cost.hash_computes, 1u);
}

TEST(ModifyRule, PersistsAcrossAlgorithmSwitch) {
  ConfigurableClassifier clf;
  clf.add_rule(port_rule(1, 80, 7));
  clf.modify_rule(RuleId{1}, ruleset::Action{42});
  clf.set_ip_algorithm(IpAlgorithm::kBst);
  EXPECT_EQ(clf.classify(header_for_port(80)).match->action, 42u);
}

TEST(ModifyRule, UnknownRuleThrows) {
  ConfigurableClassifier clf;
  EXPECT_THROW(clf.modify_rule(RuleId{9}, ruleset::Action{1}), ConfigError);
}

TEST(ModifyRule, RemoveAfterModifyStillClean) {
  ConfigurableClassifier clf;
  clf.add_rule(port_rule(1, 80, 7));
  clf.modify_rule(RuleId{1}, ruleset::Action{42});
  clf.remove_rule(RuleId{1});
  EXPECT_EQ(clf.rule_count(), 0u);
  EXPECT_FALSE(clf.classify(header_for_port(80)).match.has_value());
}

TEST(ModifyRule, ViaFlowMod) {
  dataplane::RuleProgramPublisher sw;
  sdn::FlowMod add;
  add.command = sdn::FlowMod::Command::kAdd;
  add.cookie = RuleId{5};
  add.match = port_rule(5, 443, 0);
  add.action = sdn::ActionSpec::output(3);
  sw.apply(add);
  sdn::FlowMod mod;
  mod.command = sdn::FlowMod::Command::kModify;
  mod.cookie = RuleId{5};
  mod.action = sdn::ActionSpec::output(9);
  sw.apply(mod);
  const auto snap = sw.acquire();
  const auto res = snap->classifier().classify(header_for_port(443));
  ASSERT_TRUE(res.match.has_value());
  EXPECT_EQ(sdn::ActionSpec::decode(res.match->action),
            sdn::ActionSpec::output(9));
  EXPECT_EQ(snap->rule_count(), 1u);  // modify does not duplicate rules
}

TEST(Reseed, RecoversFromProbeBoundAndStaysCorrect) {
  // A deliberately hostile filter: tiny probe bound so clustering trips
  // the CapacityError; the classifier must re-seed and carry on, and the
  // final table must still answer exactly.
  ClassifierConfig cfg = ClassifierConfig::for_scale(1000);
  cfg.rule_filter_max_probes = 3;
  cfg.combine_mode = CombineMode::kCrossProduct;
  ConfigurableClassifier clf(cfg);

  const RuleSet rs =
      ruleset::make_classbench_like(ruleset::FilterType::kAcl, 1000);
  for (const Rule& r : rs) {
    Rule copy = r;
    clf.add_rule(copy);  // must never throw: reseed absorbs clustering
  }
  EXPECT_EQ(clf.rule_count(), rs.size());

  ruleset::TraceGenerator tg(rs, {.headers = 500, .seed = 17});
  const dataplane::OracleCheck c =
      dataplane::SnapshotOracle(rs).check(clf, tg.generate());
  EXPECT_TRUE(c.ok()) << c.first_mismatch;
}

TEST(Reseed, GenuinelyFullTableStillThrows) {
  ClassifierConfig cfg;
  cfg.rule_filter_depth = 4;
  cfg.rule_filter_max_probes = 4;
  ConfigurableClassifier clf(cfg);
  usize installed = 0;
  try {
    for (u32 i = 0; i < 10; ++i) {
      clf.add_rule(port_rule(i, static_cast<u16>(1000 + i), 0));
      ++installed;
    }
    FAIL() << "expected CapacityError";
  } catch (const CapacityError&) {
    EXPECT_LE(installed, 4u);  // reseed cannot conjure capacity
  }
}

TEST(Reseed, RuleFilterReseedScattersConstructedCollisions) {
  // Deterministic trigger: keys constructed to collide under seed 1 trip
  // the probe bound; a fresh seed scatters them and the full re-upload
  // cost is metered through the log.
  RuleFilter f("f", 64, 3, 1);
  Key68Hasher h(64, 1);
  std::vector<Key68> same;
  for (u64 x = 0; same.size() < 4; ++x) {
    const Key68 k{static_cast<u8>(x & 0xF), x * 0x9E37ull};
    if (h(k) == 0) same.push_back(k);
  }
  hw::CommandLog log;
  for (usize i = 0; i < 3; ++i) {
    f.insert(same[i], {RuleId{static_cast<u32>(i)}, 0, 0}, log);
  }
  EXPECT_THROW(f.insert(same[3], {RuleId{3}, 0, 0}, log), CapacityError);

  // Find a seed that breaks the cluster (deterministic search).
  bool recovered = false;
  for (u64 seed = 2; seed < 40 && !recovered; ++seed) {
    hw::CommandLog rlog;
    try {
      f.reseed(seed, rlog);
      f.insert(same[3], {RuleId{3}, 0, 0}, rlog);
      recovered = true;
      // Re-upload cost: at least 2 beats per live entry + hash computes.
      EXPECT_GE(rlog.size(), 3u * 3u);
    } catch (const CapacityError&) {
      // reseed restored the previous layout; all three originals must
      // still be present before we try the next seed.
      for (usize i = 0; i < 3; ++i) {
        ASSERT_TRUE(f.lookup(same[i], nullptr).has_value());
      }
    }
  }
  ASSERT_TRUE(recovered);
  for (usize i = 0; i < 4; ++i) {
    const auto hit = f.lookup(same[i], nullptr);
    ASSERT_TRUE(hit.has_value()) << i;
    EXPECT_EQ(hit->rule.value, i);
  }
}
