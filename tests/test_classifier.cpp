// Core classifier behaviour: exact equivalence in CrossProduct mode,
// FirstLabel-mode invariants (the paper's combination), incremental
// updates, algorithm reconfiguration, cost accounting and reports.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <tuple>
#include <vector>

#include "baseline/linear_search.hpp"
#include "common/random.hpp"
#include "core/classifier.hpp"
#include "ruleset/generator.hpp"
#include "ruleset/stats.hpp"
#include "ruleset/trace_gen.hpp"

using namespace pclass;
using namespace pclass::core;
using pclass::ruleset::FilterType;
using pclass::ruleset::Rule;
using pclass::ruleset::RuleSet;

namespace {

RuleSet small_set() {
  return ruleset::make_classbench_like(FilterType::kAcl, 1000);
}

ClassifierConfig cfg_for(const RuleSet& rs, CombineMode mode,
                         IpAlgorithm alg) {
  ClassifierConfig c = ClassifierConfig::for_scale(rs.size());
  c.combine_mode = mode;
  c.ip_algorithm = alg;
  return c;
}

net::Trace trace_for(const RuleSet& rs, usize n, u64 seed = 77) {
  ruleset::TraceGenerator tg(rs,
                             {.headers = n, .random_fraction = 0.1,
                              .seed = seed});
  return tg.generate();
}

usize count_mismatches(const ConfigurableClassifier& clf,
                       const baseline::LinearSearch& oracle,
                       const net::Trace& trace) {
  usize mism = 0;
  for (const auto& e : trace) {
    const auto got = clf.classify(e.header);
    const auto* want = oracle.classify(e.header, nullptr);
    if (want == nullptr ? got.match.has_value()
                        : (!got.match || got.match->rule != want->id)) {
      ++mism;
    }
  }
  return mism;
}

}  // namespace

TEST(Classifier, FirstLabelHitIsAlwaysAMatchingRule) {
  // The paper's combination can return a lower-priority rule or miss,
  // but any HIT must be a rule that genuinely matches the header (the
  // label-combination soundness property).
  const RuleSet rs = small_set();
  ConfigurableClassifier clf(
      cfg_for(rs, CombineMode::kFirstLabel, IpAlgorithm::kMbt));
  clf.add_rules(rs);
  const auto trace = trace_for(rs, 2000);
  for (const auto& e : trace) {
    const auto got = clf.classify(e.header);
    if (got.match) {
      const auto rule = rs.find(got.match->rule);
      ASSERT_TRUE(rule.has_value());
      EXPECT_TRUE(rule->matches(e.header))
          << "FirstLabel returned a non-matching rule";
      EXPECT_EQ(got.crossproduct_probes, 1u);
    }
  }
}

TEST(Classifier, FirstLabelDisagreementIsMeasuredNotHidden) {
  // Reproduction finding (DESIGN.md §1.1): on a real overlapping ACL the
  // paper's first-label combination agrees with the HPMR only rarely —
  // the combination of per-dimension best labels seldom belongs to any
  // single rule. This test pins the *measurement* (deterministic seed)
  // so the ablation bench and EXPERIMENTS.md stay honest; CrossProduct
  // mode is the exact variant.
  const RuleSet rs = small_set();
  ConfigurableClassifier clf(
      cfg_for(rs, CombineMode::kFirstLabel, IpAlgorithm::kMbt));
  clf.add_rules(rs);
  baseline::LinearSearch oracle(rs);
  const auto trace = trace_for(rs, 2000);
  const usize mism = count_mismatches(clf, oracle, trace);
  const double agreement =
      1.0 - static_cast<double>(mism) / static_cast<double>(trace.size());
  fprintf(stderr, "[info] first-label agreement on %s: %.3f\n",
          rs.name().c_str(), agreement);
  EXPECT_GT(agreement, 0.0);  // some headers do resolve via first labels
  EXPECT_LT(agreement, 0.9);  // ...but the scheme is demonstrably unsound
}

TEST(Classifier, IncrementalAddsEqualBulkLoad) {
  const RuleSet rs = small_set();
  ConfigurableClassifier bulk(
      cfg_for(rs, CombineMode::kCrossProduct, IpAlgorithm::kMbt));
  bulk.add_rules(rs);
  ConfigurableClassifier inc(
      cfg_for(rs, CombineMode::kCrossProduct, IpAlgorithm::kMbt));
  for (const Rule& r : rs) {
    inc.add_rule(r);
  }
  const auto trace = trace_for(rs, 1000);
  for (const auto& e : trace) {
    const auto a = bulk.classify(e.header);
    const auto b = inc.classify(e.header);
    EXPECT_EQ(a.match.has_value(), b.match.has_value());
    if (a.match && b.match) {
      EXPECT_EQ(a.match->rule, b.match->rule);
    }
  }
}

TEST(Classifier, RemovalRestoresOracleEquivalence) {
  const RuleSet rs = small_set();
  ConfigurableClassifier clf(
      cfg_for(rs, CombineMode::kCrossProduct, IpAlgorithm::kMbt));
  clf.add_rules(rs);
  // Remove every third rule; build the reduced oracle.
  RuleSet reduced(rs.name());
  for (usize i = 0; i < rs.size(); ++i) {
    if (i % 3 == 0) {
      clf.remove_rule(rs[i].id);
    } else {
      Rule copy = rs[i];
      reduced.add(copy);
    }
  }
  EXPECT_EQ(clf.rule_count(), reduced.size());
  baseline::LinearSearch oracle(reduced);
  EXPECT_EQ(count_mismatches(clf, oracle, trace_for(rs, 1000)), 0u);
}

TEST(Classifier, RemoveAllLeavesEmptyDevice) {
  const RuleSet rs = ruleset::make_classbench_like(FilterType::kFw, 1000);
  ConfigurableClassifier clf(
      cfg_for(rs, CombineMode::kCrossProduct, IpAlgorithm::kMbt));
  clf.add_rules(rs);
  for (const Rule& r : rs) {
    clf.remove_rule(r.id);
  }
  EXPECT_EQ(clf.rule_count(), 0u);
  for (Dimension d : kAllDimensions) {
    EXPECT_EQ(clf.label_count(d), 0u) << to_string(d);
  }
  const auto got = clf.classify({1, 2, 3, 4, 6});
  EXPECT_FALSE(got.match.has_value());
}

TEST(Classifier, AlgorithmSwitchPreservesSemantics) {
  const RuleSet rs = small_set();
  ConfigurableClassifier clf(
      cfg_for(rs, CombineMode::kCrossProduct, IpAlgorithm::kMbt));
  clf.add_rules(rs);
  baseline::LinearSearch oracle(rs);
  const auto trace = trace_for(rs, 500);
  EXPECT_EQ(count_mismatches(clf, oracle, trace), 0u);

  const auto cost = clf.set_ip_algorithm(IpAlgorithm::kBst);
  EXPECT_GT(cost.cycles, 0u);
  EXPECT_GT(cost.config_toggles, 0u);
  EXPECT_EQ(clf.ip_algorithm(), IpAlgorithm::kBst);
  EXPECT_EQ(count_mismatches(clf, oracle, trace), 0u);

  // And back again.
  clf.set_ip_algorithm(IpAlgorithm::kMbt);
  EXPECT_EQ(count_mismatches(clf, oracle, trace), 0u);
}

TEST(Classifier, SwitchToSameAlgorithmIsFree) {
  ConfigurableClassifier clf;
  const auto cost = clf.set_ip_algorithm(IpAlgorithm::kMbt);
  EXPECT_EQ(cost.cycles, 0u);
}

TEST(Classifier, PaperUpdateCostWhenLabelsExist) {
  // §V.A: inserting a rule whose field values are already labelled costs
  // the hash cycle plus the two-beat rule upload — nothing else.
  const RuleSet rs = small_set();
  ConfigurableClassifier clf(
      cfg_for(rs, CombineMode::kCrossProduct, IpAlgorithm::kMbt));
  // Install all but the last rule.
  for (usize i = 0; i + 1 < rs.size(); ++i) {
    Rule r = rs[i];
    clf.add_rule(r);
  }
  // Find a held-out rule whose field values all already exist; craft one
  // from an installed rule with a fresh priority slot: combine fields of
  // two installed rules.
  Rule synth = rs[0];
  synth.dst_port = rs[1].dst_port;
  synth.id = RuleId{100000 & 0xFFFF};
  synth.priority = static_cast<Priority>(rs.size() + 1);
  bool fresh = true;
  for (usize i = 0; i + 1 < rs.size(); ++i) {
    fresh &= !rs[i].same_match(synth);
  }
  if (!fresh) {
    GTEST_SKIP() << "synthesized rule collided; calibration set quirk";
  }
  const auto cost = clf.add_rule(synth);
  EXPECT_EQ(cost.hash_computes, 1u);
  EXPECT_EQ(cost.memory_writes, 2u);
  EXPECT_EQ(cost.register_writes, 0u);
  EXPECT_EQ(cost.cycles, 3u);  // 2 + 1, the paper's claim
}

TEST(Classifier, DuplicateIdAndMatchRejected) {
  ConfigurableClassifier clf;
  Rule r;
  r.id = RuleId{1};
  r.dst_port = ruleset::PortRange::exact(80);
  clf.add_rule(r);
  EXPECT_THROW(clf.add_rule(r), ConfigError);  // same id
  Rule r2 = r;
  r2.id = RuleId{2};
  EXPECT_THROW(clf.add_rule(r2), ConfigError);  // same match
  Rule r3;
  r3.id = RuleId{};
  EXPECT_THROW(clf.add_rule(r3), ConfigError);  // invalid id
  EXPECT_THROW(clf.remove_rule(RuleId{99}), ConfigError);
}

TEST(Classifier, ClassifyPacketParsesWire) {
  ConfigurableClassifier clf;
  Rule r;
  r.id = RuleId{1};
  r.dst_port = ruleset::PortRange::exact(80);
  r.proto = ruleset::ProtoMatch::exact(net::kProtoTcp);
  clf.add_rule(r);
  const net::FiveTuple t{ipv4(1, 2, 3, 4), ipv4(5, 6, 7, 8), 999, 80,
                         net::kProtoTcp};
  const auto pkt = net::make_packet(t, 16);
  const auto via_bytes = clf.classify_packet(pkt.bytes);
  const auto via_tuple = clf.classify(t);
  ASSERT_TRUE(via_bytes.match.has_value());
  EXPECT_EQ(via_bytes.match->rule, via_tuple.match->rule);
  // Garbage bytes miss cleanly.
  const std::vector<u8> junk(10, 0xEE);
  EXPECT_FALSE(clf.classify_packet(junk).match.has_value());
}

TEST(Classifier, MemoryReportConsistency) {
  const RuleSet rs = small_set();
  ConfigurableClassifier clf(
      cfg_for(rs, CombineMode::kCrossProduct, IpAlgorithm::kMbt));
  clf.add_rules(rs);
  const MemoryReport rep = clf.memory_report();
  EXPECT_GT(rep.blocks.size(), 8u);
  EXPECT_GT(rep.total_used_bits, 0u);
  EXPECT_LE(rep.total_used_bits, rep.total_capacity_bits);
  for (const auto& b : rep.blocks) {
    EXPECT_LE(b.used_bits, b.capacity_bits) << b.name;
  }
  EXPECT_GT(rep.register_bits, 0u);
  // The shared block appears exactly once.
  usize shared_blocks = 0;
  for (const auto& b : rep.blocks) {
    if (b.name.find("shared") != std::string::npos) ++shared_blocks;
  }
  EXPECT_EQ(shared_blocks, 4u);  // one per IP dimension
}

TEST(Classifier, SynthesisReportShape) {
  ConfigurableClassifier clf;
  const auto rep = clf.synthesis_report();
  EXPECT_GT(rep.block_memory_bits, 0u);
  EXPECT_GT(rep.registers, 0u);
  EXPECT_GT(rep.logic_alms, 0u);
  EXPECT_DOUBLE_EQ(rep.fmax_mhz, 133.51);
  EXPECT_EQ(rep.pins_used, 500u);
  EXPECT_EQ(clf.memory_report().total_capacity_bits,
            rep.block_memory_bits);
}

TEST(Classifier, LabelCountsMatchRuleSetStats) {
  const RuleSet rs = small_set();
  ConfigurableClassifier clf(
      cfg_for(rs, CombineMode::kCrossProduct, IpAlgorithm::kMbt));
  clf.add_rules(rs);
  const auto st = ruleset::RuleSetStats::analyze(rs);
  for (Dimension d : kAllDimensions) {
    EXPECT_EQ(clf.label_count(d), st.unique_per_dimension[index_of(d)])
        << to_string(d);
  }
}

TEST(Classifier, PipelineModelMbtVsBst) {
  const RuleSet rs = small_set();
  ConfigurableClassifier clf(
      cfg_for(rs, CombineMode::kFirstLabel, IpAlgorithm::kMbt));
  clf.add_rules(rs);
  const auto mbt_pipe = clf.lookup_pipeline();
  EXPECT_EQ(mbt_pipe.initiation_interval(), 1u);  // Table VI: 1/packet
  // Analytic == simulated.
  EXPECT_EQ(mbt_pipe.run(1000).total_cycles,
            mbt_pipe.simulate(1000).total_cycles);

  clf.set_ip_algorithm(IpAlgorithm::kBst);
  const auto bst_pipe = clf.lookup_pipeline();
  EXPECT_GT(bst_pipe.initiation_interval(), 4u);   // not pipelined
  EXPECT_LE(bst_pipe.initiation_interval(), 16u);  // paper's bound
}

TEST(Classifier, AccessCountsMatchConfiguredAlgorithms) {
  const RuleSet rs = small_set();
  ConfigurableClassifier clf(
      cfg_for(rs, CombineMode::kFirstLabel, IpAlgorithm::kMbt));
  clf.add_rules(rs);
  const auto trace = trace_for(rs, 200);
  u64 mbt_total = 0, bst_total = 0;
  for (const auto& e : trace) {
    mbt_total += clf.classify(e.header).memory_accesses;
  }
  clf.set_ip_algorithm(IpAlgorithm::kBst);
  for (const auto& e : trace) {
    bst_total += clf.classify(e.header).memory_accesses;
  }
  // BST walks cost far more reads than the 3-level MBT.
  EXPECT_GT(bst_total, mbt_total);
}

TEST(Classifier, FailedAddKeepsDeviceCorrect) {
  // Orphaned labels from a failed insert must not corrupt results
  // (documented non-transactionality: the refcounted label is unreferenced
  // by any rule, so it can never produce a false hit).
  ClassifierConfig tiny = ClassifierConfig::for_scale(100);
  tiny.rule_filter_depth = 4;  // force a capacity failure
  tiny.rule_filter_max_probes = 2;
  tiny.combine_mode = CombineMode::kCrossProduct;
  ConfigurableClassifier clf(tiny);
  RuleSet installed("ok");
  usize failures = 0;
  const RuleSet rs = small_set();
  for (usize i = 0; i < 12; ++i) {
    Rule r = rs[i];
    try {
      clf.add_rule(r);
      installed.add(r);
    } catch (const CapacityError&) {
      ++failures;
    }
  }
  ASSERT_GT(failures, 0u);
  baseline::LinearSearch oracle(installed);
  EXPECT_EQ(count_mismatches(clf, oracle, trace_for(rs, 500)), 0u);
}

TEST(Classifier, RejectedWideRuleLeaksNoLabels) {
  // An id, priority or action above the Rule Filter's 16-bit fields is
  // refused before the update path acquires a single label.
  const RuleSet rs = small_set();
  ConfigurableClassifier clf(
      cfg_for(rs, CombineMode::kCrossProduct, IpAlgorithm::kMbt));
  clf.add_rules(rs);
  const auto counts = [&clf] {
    std::array<usize, kNumDimensions> c{};
    for (const Dimension d : kAllDimensions) {
      c[index_of(d)] = clf.label_count(d);
    }
    return c;
  };
  const auto before = counts();

  Rule ok;
  ok.src_ip = ruleset::IpPrefix::make(0x63636300u, 24);  // 99.99.99.0/24
  ok.dst_ip = ruleset::IpPrefix::make(0x62000000u, 8);   // 98.0.0.0/8
  ok.src_port = ruleset::PortRange::exact(4242);
  ok.dst_port = ruleset::PortRange::exact(4343);
  ok.proto = ruleset::ProtoMatch::exact(47);
  ok.priority = 5;
  ok.id = RuleId{60000};

  Rule wide_id = ok;
  wide_id.id = RuleId{70000};
  EXPECT_THROW(clf.add_rule(wide_id), ConfigError);
  Rule wide_prio = ok;
  wide_prio.priority = 70000;
  EXPECT_THROW(clf.add_rule(wide_prio), ConfigError);
  Rule wide_action = ok;
  wide_action.action = ruleset::Action{70000};
  EXPECT_THROW(clf.add_rule(wide_action), ConfigError);
  RuleSet bulk("bulk");
  bulk.add_verbatim(wide_id);
  EXPECT_THROW(clf.add_rules(bulk), ConfigError);
  EXPECT_EQ(counts(), before);

  // A valid add and remove of the same match returns to the same counts.
  clf.add_rule(ok);
  EXPECT_THROW(clf.modify_rule(ok.id, ruleset::Action{70000}), ConfigError);
  EXPECT_EQ(clf.installed_rule(ok.id)->action, ok.action);
  clf.remove_rule(ok.id);
  EXPECT_EQ(counts(), before);
  EXPECT_EQ(clf.rule_count(), rs.size());
}

TEST(Classifier, CapacityErrorMidAddLeaksNoLabels) {
  // The protocol label table holds four labels. Once a fourth protocol
  // is in, an add with a fifth one throws after the IP and port labels
  // were already taken; those must be given back.
  const RuleSet rs = small_set();
  for (const IpAlgorithm alg :
       {IpAlgorithm::kMbt, IpAlgorithm::kBst, IpAlgorithm::kRvh}) {
    SCOPED_TRACE(to_string(alg));
    ConfigurableClassifier clf(cfg_for(rs, CombineMode::kCrossProduct, alg));
    clf.add_rules(rs);
    const auto counts = [&clf] {
      std::array<usize, kNumDimensions> c{};
      for (const Dimension d : kAllDimensions) {
        c[index_of(d)] = clf.label_count(d);
      }
      return c;
    };
    const auto installed = counts();
    EXPECT_EQ(installed,
              (std::array<usize, kNumDimensions>{10, 94, 134, 164, 1, 99, 3}));

    Rule fourth;
    fourth.src_ip = ruleset::IpPrefix::make(0x63636300u, 24);
    fourth.dst_ip = ruleset::IpPrefix::make(0x62000000u, 8);
    fourth.src_port = ruleset::PortRange::exact(4242);
    fourth.dst_port = ruleset::PortRange::exact(4343);
    fourth.proto = ruleset::ProtoMatch::exact(50);
    fourth.priority = 5;
    fourth.id = RuleId{60000};
    clf.add_rule(fourth);
    const auto full = counts();
    EXPECT_EQ(full,
              (std::array<usize, kNumDimensions>{11, 95, 134, 164, 2, 100, 4}));

    Rule fifth = fourth;
    fifth.src_port = ruleset::PortRange::exact(4444);
    fifth.proto = ruleset::ProtoMatch::exact(51);
    fifth.id = RuleId{60001};
    EXPECT_THROW(clf.add_rule(fifth), CapacityError);
    EXPECT_EQ(counts(), full);
    // In a batch, the rules before the failing one stay installed and
    // classify (under BST their staged prefixes still reach the tree).
    Rule earlier = fourth;
    earlier.src_ip = ruleset::IpPrefix::make(0x61616100u, 24);
    earlier.priority = 0;
    earlier.id = RuleId{60002};
    RuleSet bulk("bulk");
    bulk.add_verbatim(earlier);
    bulk.add_verbatim(fifth);
    EXPECT_THROW(clf.add_rules(bulk), CapacityError);
    const auto hit = clf.classify(
        net::FiveTuple{0x61616101u, 0x62000001u, 4242, 4343, 50});
    ASSERT_TRUE(hit.match.has_value());
    EXPECT_EQ(hit.match->rule, earlier.id);
    clf.remove_rule(earlier.id);
    EXPECT_EQ(counts(), full);

    clf.remove_rule(fourth.id);
    EXPECT_EQ(counts(), installed);
    // The rolled-back prefixes left no engine state behind: re-adding
    // the same match part (and then the fifth protocol) works.
    clf.add_rule(fourth);
    clf.remove_rule(fourth.id);
    clf.add_rule(fifth);
    EXPECT_TRUE(clf.classify(net::FiveTuple{0x63636301u, 0x62000001u, 4444,
                                            4343, 51})
                    .match.has_value());
    clf.remove_rule(fifth.id);
    EXPECT_EQ(counts(), installed);
  }
}

TEST(Classifier, FullRuleFilterLeaksNoLabels) {
  // Every label is taken before the Rule Filter insert; a genuinely
  // full filter must give them all back.
  ClassifierConfig cfg = ClassifierConfig::for_scale(8);
  cfg.combine_mode = CombineMode::kCrossProduct;
  cfg.rule_filter_depth = 4;
  cfg.rule_filter_max_probes = 4;
  ConfigurableClassifier clf(cfg);
  const auto make = [](u32 k) {
    Rule r;
    r.src_ip = ruleset::IpPrefix::make(0x0A000000u | (k << 8), 24);
    r.dst_port = ruleset::PortRange::exact(static_cast<u16>(1000 + k));
    r.priority = k;
    r.id = RuleId{k + 1};
    return r;
  };
  for (u32 k = 0; k < 4; ++k) clf.add_rule(make(k));
  const auto counts = [&clf] {
    std::array<usize, kNumDimensions> c{};
    for (const Dimension d : kAllDimensions) {
      c[index_of(d)] = clf.label_count(d);
    }
    return c;
  };
  const auto before = counts();
  EXPECT_THROW(clf.add_rule(make(4)), CapacityError);
  EXPECT_EQ(counts(), before);
  EXPECT_EQ(clf.rule_count(), 4u);
  clf.remove_rule(RuleId{1});
  clf.add_rule(make(4));
  EXPECT_EQ(clf.rule_count(), 4u);
}

TEST(Classifier, UpdateStatsAccumulateOnBus) {
  const RuleSet rs = small_set();
  ConfigurableClassifier clf(
      cfg_for(rs, CombineMode::kCrossProduct, IpAlgorithm::kMbt));
  EXPECT_EQ(clf.update_stats().cycles, 0u);
  Rule r = rs[0];
  const auto c1 = clf.add_rule(r);
  EXPECT_EQ(clf.update_stats().cycles, c1.cycles);
  const auto c2 = clf.remove_rule(r.id);
  EXPECT_EQ(clf.update_stats().cycles, c1.cycles + c2.cycles);
}

// FirstLabel and CrossProduct agree whenever the first-label combination
// happens to own the HPMR — on a disjoint rule set they are identical.
TEST(Classifier, ModesAgreeOnDisjointRules) {
  RuleSet rs("disjoint");
  for (u16 i = 0; i < 50; ++i) {
    Rule r;
    r.src_ip = ruleset::IpPrefix::make(
        ipv4(10, static_cast<u8>(i), 0, 0), 16);
    r.dst_port = ruleset::PortRange::exact(static_cast<u16>(1000 + i));
    r.proto = ruleset::ProtoMatch::exact(net::kProtoTcp);
    rs.add(r);
  }
  ConfigurableClassifier clf(
      cfg_for(rs, CombineMode::kFirstLabel, IpAlgorithm::kMbt));
  clf.add_rules(rs);
  baseline::LinearSearch oracle(rs);
  const auto trace = trace_for(rs, 500, 123);
  EXPECT_EQ(count_mismatches(clf, oracle, trace), 0u);
}

TEST(Classifier, PrunedCombineKeepsEqualPriorityTieBreak) {
  // Two rules match the header at priority 10; the lower id must win.
  // A non-matching rule at priority 1 shares the 20.0.0.0/8 destination
  // label, so that label (bound 1) is walked first and its priority-10
  // rule becomes the best hit. The wildcard destination label's bound
  // then *equals* the best priority: it must still be walked, or the
  // other rule is never probed.
  const net::FiveTuple h{ipv4(10, 1, 1, 1), ipv4(20, 1, 1, 1), 1234, 80,
                         net::kProtoTcp};
  for (const IpAlgorithm alg :
       {IpAlgorithm::kMbt, IpAlgorithm::kBst, IpAlgorithm::kRvh}) {
    for (const bool first_found_wins : {false, true}) {
      SCOPED_TRACE(std::string(to_string(alg)) +
                   (first_found_wins ? " first-found wins"
                                     : " later-found wins"));
      Rule under_dst;  // found first, under the bound-1 label
      under_dst.dst_ip = ruleset::IpPrefix::make(ipv4(20, 0, 0, 0), 8);
      under_dst.priority = 10;
      under_dst.id = RuleId{first_found_wins ? 3u : 7u};
      Rule under_wildcard;  // reached only through the equal bound
      under_wildcard.src_ip = ruleset::IpPrefix::make(ipv4(10, 0, 0, 0), 8);
      under_wildcard.priority = 10;
      under_wildcard.id = RuleId{first_found_wins ? 7u : 3u};
      Rule bound_setter;  // shares under_dst's label, never matches h
      bound_setter.src_ip = ruleset::IpPrefix::make(ipv4(99, 0, 0, 0), 8);
      bound_setter.dst_ip = under_dst.dst_ip;
      bound_setter.priority = 1;
      bound_setter.id = RuleId{9};
      RuleSet rs("ties");
      for (const Rule& r : {under_dst, under_wildcard, bound_setter}) {
        rs.add_verbatim(r);
      }

      ClassifierConfig cfg = ClassifierConfig::for_scale(16);
      cfg.combine_mode = CombineMode::kCrossProduct;
      cfg.ip_algorithm = alg;
      ConfigurableClassifier clf(cfg);
      clf.add_rules(rs);

      const ClassifyResult got = clf.classify(h);
      ASSERT_TRUE(got.match.has_value());
      EXPECT_EQ(got.match->rule, RuleId{3});
      // One probe per matching rule; every other combination is pruned.
      EXPECT_EQ(got.crossproduct_probes, 2u);
      const baseline::LinearSearch oracle(rs);
      EXPECT_EQ(oracle.classify(h, nullptr)->id, RuleId{3});
    }
  }
}

TEST(Classifier, PrefixTablesStayExactAcrossUpdates) {
  // The combine's prefix tables are refcounted by the update path. After
  // a seeded mix of adds, removes and modifies, a CapacityError part-way
  // through an add and a failing add_rules batch, they must hold exactly
  // the prefixes of the installed rules (the rows of a device built fresh
  // from installed_rules()), and the pruned search must stay exact.
  const RuleSet rs = small_set();
  const auto prefix_rows = [](const ConfigurableClassifier& c) {
    std::vector<std::tuple<std::string, u64, u64>> rows;
    for (const MemoryBlockReport& b : c.memory_report().blocks) {
      if (b.name.starts_with("combine.prefix")) {
        rows.emplace_back(b.name, b.capacity_bits, b.used_bits);
      }
    }
    return rows;
  };
  for (const IpAlgorithm alg :
       {IpAlgorithm::kMbt, IpAlgorithm::kBst, IpAlgorithm::kRvh}) {
    SCOPED_TRACE(to_string(alg));
    const ClassifierConfig cfg =
        cfg_for(rs, CombineMode::kCrossProduct, alg);
    ConfigurableClassifier clf(cfg);
    RuleSet base("base");
    for (usize i = 0; i < rs.size() / 2; ++i) base.add_verbatim(rs[i]);
    clf.add_rules(base);

    Rng rng(17);
    for (usize step = 0; step < 600; ++step) {
      const std::vector<Rule> live = clf.installed_rules();
      const u64 op = rng.below(3);
      if (op == 0 || live.empty()) {
        const Rule& r = rs[rng.below(rs.size())];
        if (!clf.installed_rule(r.id)) clf.add_rule(r);
      } else if (op == 1) {
        clf.remove_rule(live[rng.below(live.size())].id);
      } else {
        clf.modify_rule(live[rng.below(live.size())].id,
                        ruleset::Action{static_cast<u32>(rng.below(100))});
      }
    }

    // The set uses three protocol labels; a fourth fits, a fifth throws
    // after the IP and port labels were taken.
    Rule fourth;
    fourth.src_ip = ruleset::IpPrefix::make(ipv4(99, 99, 99, 0), 24);
    fourth.dst_ip = ruleset::IpPrefix::make(ipv4(98, 0, 0, 0), 8);
    fourth.dst_port = ruleset::PortRange::exact(4343);
    fourth.proto = ruleset::ProtoMatch::exact(50);
    fourth.priority = 5;
    fourth.id = RuleId{60000};
    // Its source labels are new, so are its deeper prefixes: each flips
    // an entry on add and back on remove.
    const hw::UpdateStats on = clf.add_rule(fourth);
    const hw::UpdateStats off = clf.remove_rule(fourth.id);
    EXPECT_GT(on.prefix_writes, 0u);
    EXPECT_EQ(on.prefix_writes, off.prefix_writes);
    clf.add_rule(fourth);
    Rule fifth = fourth;
    fifth.proto = ruleset::ProtoMatch::exact(51);
    fifth.id = RuleId{60001};
    EXPECT_THROW(clf.add_rule(fifth), CapacityError);
    // A batch whose last rule fails keeps the rules before it.
    Rule earlier = fourth;
    earlier.src_ip = ruleset::IpPrefix::make(ipv4(97, 97, 97, 0), 24);
    earlier.id = RuleId{60002};
    RuleSet bulk("bulk");
    bulk.add_verbatim(earlier);
    bulk.add_verbatim(fifth);
    EXPECT_THROW(clf.add_rules(bulk), CapacityError);
    ASSERT_TRUE(clf.installed_rule(earlier.id).has_value());

    RuleSet installed("installed");
    for (const Rule& r : clf.installed_rules()) installed.add_verbatim(r);
    ConfigurableClassifier fresh(cfg);
    fresh.add_rules(installed);
    const auto rows = prefix_rows(clf);
    EXPECT_EQ(rows.size(), 5u);
    EXPECT_EQ(rows, prefix_rows(fresh));

    const baseline::LinearSearch oracle(installed);
    const net::Trace trace = trace_for(installed, 1000, 5);
    EXPECT_EQ(count_mismatches(clf, oracle, trace), 0u);
  }
}
