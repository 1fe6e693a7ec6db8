/// Tests for the verdict judge (dataplane::VersionedOracle and
/// SnapshotOracle): a stream captured from a real engine run agrees as
/// delivered, and each way one verdict can be wrong is one named mismatch.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "dataplane/engine.hpp"
#include "ruleset/generator.hpp"
#include "ruleset/trace_gen.hpp"

using namespace pclass;
using namespace pclass::dataplane;

namespace {

core::ClassifierConfig exact_config(usize scale) {
  core::ClassifierConfig cfg = core::ClassifierConfig::for_scale(scale);
  cfg.combine_mode = core::CombineMode::kCrossProduct;
  return cfg;
}

/// The verdicts two engine runs delivered: the trace after the install,
/// then again after the first matched verdict's rule got a new action.
struct CapturedRun {
  ruleset::RuleSet rules =
      ruleset::make_classbench_like(ruleset::FilterType::kFw, 1000);
  net::Trace trace =
      ruleset::TraceGenerator(rules, {.headers = 600, .seed = 29}).generate();
  RuleProgramPublisher programs{exact_config(rules.size())};
  VersionedOracle oracle;
  std::vector<CapturedVerdict> stream;
  usize hit = 0;  ///< the first matched verdict, from the first run

  CapturedRun() {
    programs.install_ruleset(rules);
    capture();
    while (!stream.at(hit).match) ++hit;
    sdn::FlowMod mod;
    mod.command = sdn::FlowMod::Command::kModify;
    mod.cookie = stream[hit].match->rule;
    mod.action = sdn::ActionSpec::output(static_cast<u16>(
        sdn::ActionSpec::decode(stream[hit].match->action).arg + 1));
    programs.apply(mod);
    capture();
  }

  void capture() {
    oracle.record(programs);
    TrafficPool pool = TrafficPool::from_trace(trace, /*materialize=*/false);
    Engine engine({.workers = 2, .telemetry = false, .capture_verdicts = true},
                  programs);
    for (const auto& shard : engine.run(pool).captured) {
      stream.insert(stream.end(), shard.begin(), shard.end());
    }
  }

  /// The stream with verdict \p k altered, judged by the run's oracle.
  [[nodiscard]] OracleCheck judge_with(
      usize k, const std::function<void(CapturedVerdict&)>& alter) const {
    std::vector<CapturedVerdict> s = stream;
    alter(s.at(k));
    VersionedOracle o = oracle;
    o.judge(s);
    return o.result();
  }
};

}  // namespace

TEST(VerdictOracle, EachAlteredVerdictIsOneNamedMismatch) {
  const CapturedRun run;
  ASSERT_EQ(run.stream.size(), 2 * run.trace.size());
  const OracleCheck clean = run.judge_with(0, [](CapturedVerdict&) {});
  EXPECT_EQ(clean.checked, run.stream.size());
  EXPECT_TRUE(clean.ok()) << clean.first_mismatch;
  EXPECT_GT(clean.oracle_matched, 0u);

  // One verdict altered each way, named "version V, header H: ...".
  const CapturedVerdict& v = run.stream[run.hit];
  const core::RuleEntry& e = *v.match;
  const std::string header = "header " + net::to_string(v.tuple) + ": ";
  const std::pair<std::function<void(CapturedVerdict&)>, std::string>
      cases[] = {
          {[](CapturedVerdict& cv) { cv.match.reset(); }, "got miss"},
          {[](CapturedVerdict& cv) { ++cv.match->rule.value; },
           "got rule " + std::to_string(e.rule.value + 1)},
          {[](CapturedVerdict& cv) { ++cv.match->priority; },
           "(priority " + std::to_string(e.priority + 1)},
          {[](CapturedVerdict& cv) { cv.match->action ^= 1; },
           "action " + std::to_string(e.action ^ 1) + ")"},
          {[](CapturedVerdict& cv) { cv.version += 2; },
           "version never published"},
          {[](CapturedVerdict& cv) { cv.parse_error = true; }, "parse error"},
      };
  for (const auto& [alter, named] : cases) {
    SCOPED_TRACE(named);
    const OracleCheck c = run.judge_with(run.hit, alter);
    EXPECT_EQ(c.checked, run.stream.size());
    EXPECT_EQ(c.mismatches, 1u);
    EXPECT_NE(c.first_mismatch.find(header), std::string::npos);
    EXPECT_NE(c.first_mismatch.find(named), std::string::npos)
        << c.first_mismatch;
  }
  // v's header after the new action, stamped with the old version: a
  // stale snapshot.
  usize later = run.trace.size();
  while (run.stream.at(later).tuple != v.tuple) ++later;
  const OracleCheck stale = run.judge_with(
      later, [&v](CapturedVerdict& cv) { cv.version = v.version; });
  EXPECT_EQ(stale.mismatches, 1u);
  EXPECT_EQ(stale.first_mismatch.rfind(
                "version " + std::to_string(v.version) + ", " + header, 0),
            0u)
      << stale.first_mismatch;
}

// check_against_oracle's body, SnapshotOracle::check, reports a verdict
// whose rule id is right but whose action or priority is not the
// oracle's: judged against the installed rules with other actions, or
// with every priority shifted (same order), each hit disagrees.
TEST(VerdictOracle, CheckJudgesPriorityAndAction) {
  const CapturedRun run;
  const auto snapshot = run.programs.acquire();
  const core::ConfigurableClassifier& clf = snapshot->classifier();
  const OracleCheck own = check_against_oracle(clf, run.trace);
  ASSERT_TRUE(own.ok()) << own.first_mismatch;
  ASSERT_GT(own.oracle_matched, 0u);
  ruleset::RuleSet other_action("other-action");
  ruleset::RuleSet shifted("shifted-priority");
  for (ruleset::Rule r : installed_ruleset(clf)) {
    r.action.token ^= 1;
    other_action.add_verbatim(r);
    r.action.token ^= 1;
    ++r.priority;
    shifted.add_verbatim(r);
  }
  for (const ruleset::RuleSet* expected : {&other_action, &shifted}) {
    const OracleCheck c = SnapshotOracle(*expected).check(clf, run.trace);
    EXPECT_EQ(c.mismatches, own.oracle_matched) << expected->name();
  }
}
