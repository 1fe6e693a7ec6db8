#include <gtest/gtest.h>

#include "core/classifier.hpp"
#include "dataplane/rule_program.hpp"
#include "ruleset/generator.hpp"
#include "ruleset/stats.hpp"
#include "ruleset/trace_gen.hpp"

using namespace pclass;

class SmokeAll : public ::testing::TestWithParam<
                     std::tuple<ruleset::FilterType, usize, core::IpAlgorithm>> {};

TEST_P(SmokeAll, CrossProductMatchesOracle) {
  const auto [type, size, alg] = GetParam();
  auto rules = ruleset::make_classbench_like(type, size);

  core::ClassifierConfig cfg = core::ClassifierConfig::for_scale(rules.size());
  cfg.combine_mode = core::CombineMode::kCrossProduct;
  cfg.ip_algorithm = alg;
  core::ConfigurableClassifier clf(cfg);
  clf.add_rules(rules);

  ruleset::TraceGenerator tg(rules, {.headers = 500, .seed = 7});
  const dataplane::OracleCheck c =
      dataplane::SnapshotOracle(rules).check(clf, tg.generate());
  EXPECT_TRUE(c.ok()) << c.mismatches << " mismatches, first "
                      << c.first_mismatch;

  auto stats = ruleset::RuleSetStats::analyze(rules);
  fprintf(stderr,
          "[info] %s rules=%zu uniq(src=%zu dst=%zu sp=%zu dp=%zu pr=%zu)\n",
          rules.name().c_str(), rules.size(), stats.unique_src_ip,
          stats.unique_dst_ip, stats.unique_src_port, stats.unique_dst_port,
          stats.unique_protocol);
}

INSTANTIATE_TEST_SUITE_P(
    All, SmokeAll,
    ::testing::Combine(
        ::testing::Values(ruleset::FilterType::kAcl, ruleset::FilterType::kFw,
                          ruleset::FilterType::kIpc),
        ::testing::Values(1000, 5000, 10000),
        ::testing::Values(core::IpAlgorithm::kMbt, core::IpAlgorithm::kBst)));
