// End-to-end integration: controller + publisher snapshot + generated
// filter sets + wire-format traffic, reconfiguration under load,
// update-cost shape and failure injection.
#include <gtest/gtest.h>

#include "core/cycle_model.hpp"
#include "dataplane/rule_program.hpp"
#include "ruleset/generator.hpp"
#include "ruleset/trace_gen.hpp"
#include "sdn/controller.hpp"

using namespace pclass;
using pclass::ruleset::FilterType;
using pclass::ruleset::Rule;
using pclass::ruleset::RuleSet;

namespace {

RuleSet fw_set() {
  RuleSet rs = ruleset::make_classbench_like(FilterType::kFw, 1000);
  return rs;
}

}  // namespace

TEST(Integration, FullStackForwardingMatchesOracle) {
  const RuleSet rs = fw_set();
  core::ClassifierConfig cfg = core::ClassifierConfig::for_scale(rs.size());
  cfg.combine_mode = core::CombineMode::kCrossProduct;
  dataplane::RuleProgramPublisher sw(cfg);
  sdn::Controller ctl("c0");
  ctl.attach(sw);
  ctl.install_ruleset(rs);
  const auto snap = sw.acquire();
  ASSERT_EQ(snap->rule_count(), rs.size());

  ruleset::TraceGenerator tg(rs, {.headers = 1500, .random_fraction = 0.1,
                                  .seed = 21});
  const dataplane::OracleCheck c =
      dataplane::SnapshotOracle(rs).check(snap->classifier(), tg.generate());
  EXPECT_TRUE(c.ok()) << c.mismatches << " mismatches, first "
                      << c.first_mismatch;
}

TEST(Integration, WireFormatPathAgreesWithTuplePathForTcpUdp) {
  const RuleSet rs = fw_set();
  core::ClassifierConfig cfg = core::ClassifierConfig::for_scale(rs.size());
  cfg.combine_mode = core::CombineMode::kCrossProduct;
  dataplane::RuleProgramPublisher sw(cfg);
  sdn::Controller ctl("c0");
  ctl.attach(sw);
  ctl.install_ruleset(rs);
  const auto snap = sw.acquire();

  ruleset::TraceGenerator tg(rs, {.headers = 300, .random_fraction = 0.0,
                                  .seed = 33});
  const auto trace = tg.generate();
  usize checked = 0;
  for (const auto& e : trace) {
    // ICMP tuples with synthetic port fields cannot round-trip through
    // real headers (ICMP has no ports) — skip them.
    if (e.header.protocol != net::kProtoTcp &&
        e.header.protocol != net::kProtoUdp) {
      continue;
    }
    const auto via_tuple = snap->classifier().classify(e.header);
    const auto pkt = net::make_packet(e.header, 8);
    const auto via_wire = snap->classifier().classify_packet(pkt.bytes);
    EXPECT_EQ(via_tuple.match.has_value(), via_wire.match.has_value());
    if (via_tuple.match && via_wire.match) {
      EXPECT_EQ(via_tuple.match->rule, via_wire.match->rule);
    }
    ++checked;
  }
  EXPECT_GT(checked, 100u);
}

TEST(Integration, ReconfigurationUnderChurn) {
  // Install, mutate, switch algorithms repeatedly — semantics must hold
  // at every step (this exercises the Fig. 5 shared-memory flush).
  const RuleSet rs = ruleset::make_classbench_like(FilterType::kIpc, 1000);
  core::ClassifierConfig cfg = core::ClassifierConfig::for_scale(rs.size());
  cfg.combine_mode = core::CombineMode::kCrossProduct;
  core::ConfigurableClassifier clf(cfg);

  RuleSet live("live");
  usize next = 0;
  // Install first half.
  for (; next < rs.size() / 2; ++next) {
    Rule r = rs[next];
    clf.add_rule(r);
    live.add(r);
  }
  ruleset::TraceGenerator tg(rs, {.headers = 300, .seed = 44});
  const auto trace = tg.generate();

  auto verify = [&] {
    const dataplane::OracleCheck c =
        dataplane::SnapshotOracle(live).check(clf, trace);
    ASSERT_TRUE(c.ok()) << c.first_mismatch;
  };

  verify();
  clf.set_ip_algorithm(core::IpAlgorithm::kBst);
  verify();
  // Add 100 more rules while on BST.
  for (usize i = 0; i < 100 && next < rs.size(); ++i, ++next) {
    Rule r = rs[next];
    clf.add_rule(r);
    live.add(r);
  }
  verify();
  clf.set_ip_algorithm(core::IpAlgorithm::kMbt);
  verify();
}

TEST(Integration, UpdateCostShape) {
  // §V.A shape: label-hit inserts cost exactly 3 bus cycles; label-miss
  // inserts additionally pay for structure writes; BST inserts pay the
  // software-rebuild upload (its documented weakness).
  const RuleSet rs = ruleset::make_classbench_like(FilterType::kAcl, 1000);
  core::ClassifierConfig cfg = core::ClassifierConfig::for_scale(rs.size());
  core::ConfigurableClassifier clf(cfg);

  u64 min_cost = ~u64{0}, max_cost = 0;
  for (const Rule& r : rs) {
    Rule copy = r;
    const auto cost = clf.add_rule(copy);
    min_cost = std::min(min_cost, cost.cycles);
    max_cost = std::max(max_cost, cost.cycles);
  }
  // Some rule late in the set reuses all 7 field values -> 3 cycles.
  EXPECT_EQ(min_cost, 3u);
  EXPECT_GT(max_cost, 3u);
}

TEST(Integration, ThroughputModelReproducesHeadlineRates) {
  // §VI: 133.51 MHz, II=1 -> 133.51 Mlps; 42.7 Gbps @40 B; >100 Gbps
  // @100 B. Table VII BST row: II=16 -> 2.67 Gbps @40 B.
  const core::ThroughputModel m;
  EXPECT_NEAR(m.mega_lookups_per_sec(1.0), 133.51, 1e-9);
  EXPECT_NEAR(m.gbps(1.0, 40), 42.72, 0.05);
  EXPECT_GT(m.gbps(1.0, 100), 100.0);
  EXPECT_NEAR(m.gbps(16.0, 40), 2.67, 0.01);
}

TEST(Integration, SharedMemoryDisabledStillWorks) {
  core::ClassifierConfig cfg = core::ClassifierConfig::for_scale(1000);
  cfg.share_ip_memory = false;
  cfg.combine_mode = core::CombineMode::kCrossProduct;
  core::ConfigurableClassifier clf(cfg);
  const RuleSet rs = ruleset::make_classbench_like(FilterType::kAcl, 1000);
  clf.add_rules(rs);
  clf.set_ip_algorithm(core::IpAlgorithm::kBst);
  ruleset::TraceGenerator tg(rs, {.headers = 300, .seed = 3});
  const dataplane::OracleCheck c =
      dataplane::SnapshotOracle(rs).check(clf, tg.generate());
  ASSERT_TRUE(c.ok()) << c.first_mismatch;
  // Without sharing, BST blocks appear as their own memories.
  bool has_bst_block = false;
  for (const auto& b : clf.memory_report().blocks) {
    has_bst_block |= b.name.find(".bst") != std::string::npos;
  }
  EXPECT_TRUE(has_bst_block);
}

TEST(Integration, CapacityFailureSurfacesCleanly) {
  core::ClassifierConfig tiny;
  tiny.mbt.level_capacity = {1, 2, 2};
  tiny.bst.max_nodes = 64;
  tiny.label_store_depth = 64;
  tiny.rule_filter_depth = 64;
  core::ConfigurableClassifier clf(tiny);
  const RuleSet rs = ruleset::make_classbench_like(FilterType::kAcl, 1000);
  bool failed = false;
  for (const Rule& r : rs) {
    try {
      Rule copy = r;
      clf.add_rule(copy);
    } catch (const CapacityError& e) {
      failed = true;
      EXPECT_NE(std::string(e.what()).find("exhausted"), std::string::npos);
      break;
    }
  }
  EXPECT_TRUE(failed);
}

TEST(Integration, PipelineTimingMatchesTableVi) {
  // Table VI: MBT sustains 1 lookup/cycle steady-state; BST needs its
  // walk depth per packet. Measured through the Fig. 3 pipeline model.
  const RuleSet rs = ruleset::make_classbench_like(FilterType::kAcl, 1000);
  core::ClassifierConfig cfg = core::ClassifierConfig::for_scale(rs.size());
  core::ConfigurableClassifier clf(cfg);
  clf.add_rules(rs);

  const auto mbt = clf.lookup_pipeline().simulate(100000);
  EXPECT_NEAR(mbt.cycles_per_packet, 1.0, 0.001);

  clf.set_ip_algorithm(core::IpAlgorithm::kBst);
  const auto bst = clf.lookup_pipeline().simulate(100000);
  EXPECT_GT(bst.cycles_per_packet, 4.0);
  EXPECT_LE(bst.cycles_per_packet, 17.0);
}
