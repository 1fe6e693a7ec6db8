// classify() against the LinearSearch oracle, and the dataplane's
// per-packet charges.
//
// Under CrossProduct every verdict of classify() — rule id, priority and
// action token — must equal baseline::LinearSearch's, judged by
// dataplane::SnapshotOracle. Covered for every IP backend and the
// workload shapes that stress the lookup differently: fw-like
// (wildcard-heavy lists), acl/ipc, Zipf flows (heavy repeats), trie
// depth and cache thrash (every packet a distinct flow). A dataplane
// worker, which calls classify() for each packet its batch leaves
// unresolved, delivers the same per-packet charges as classify().
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/classifier.hpp"
#include "dataplane/engine.hpp"
#include "workload/ruleset_synth.hpp"
#include "workload/trace_synth.hpp"

using namespace pclass;

namespace {

struct Shape {
  std::string name;
  ruleset::RuleSet rules;
  std::vector<net::FiveTuple> headers;
};

std::vector<net::FiveTuple> headers_of(const net::Trace& trace) {
  std::vector<net::FiveTuple> h;
  h.reserve(trace.size());
  for (const auto& e : trace) h.push_back(e.header);
  return h;
}

Shape synthesized(const std::string& name, const ruleset::RuleSet& rules,
                  const workload::TraceProfile& tp) {
  workload::TraceSynthesizer ts(rules, tp);
  return {name, rules, headers_of(ts.generate())};
}

std::vector<Shape> shapes() {
  std::vector<Shape> out;
  for (const char* family : {"acl", "fw", "ipc"}) {
    const ruleset::RuleSet rules = workload::synthesize(
        workload::RulesetProfile::by_family(family, 200, 77));
    out.push_back(synthesized(std::string(family) + "-standard", rules,
                              workload::TraceProfile::standard(
                                  1200, 77 ^ 0xABCD)));
  }
  const ruleset::RuleSet fw =
      workload::synthesize(workload::RulesetProfile::fw(150, 47));
  out.push_back(synthesized("fw-zipf", fw,
                            workload::TraceProfile::zipf_heavy(
                                600, 47 ^ 0x21BF)));
  const ruleset::RuleSet acl =
      workload::synthesize(workload::RulesetProfile::acl(200, 99));
  out.push_back({"trie-depth", acl,
                 headers_of(workload::make_trie_depth_trace(acl, 800, 13))});
  out.push_back(
      {"cache-thrash", acl,
       headers_of(workload::make_cache_thrash_trace(acl, 800, 512, 13))});
  return out;
}

class Classify : public ::testing::TestWithParam<core::IpAlgorithm> {};

TEST_P(Classify, AgreesWithTheOracleOnEveryShape) {
  for (const Shape& shape : shapes()) {
    SCOPED_TRACE(shape.name);
    core::ClassifierConfig cfg = core::ClassifierConfig::for_scale(512);
    cfg.ip_algorithm = GetParam();
    cfg.combine_mode = core::CombineMode::kCrossProduct;
    core::ConfigurableClassifier clf(cfg);
    clf.add_rules(shape.rules);
    const dataplane::SnapshotOracle oracle(shape.rules);
    dataplane::OracleCheck check;
    for (usize i = 0; i < shape.headers.size(); ++i) {
      const net::FiveTuple& h = shape.headers[i];
      ASSERT_TRUE(oracle.judge(h, clf.classify(h).match, check))
          << "packet " << i << ": " << check.first_mismatch;
    }
    EXPECT_EQ(check.checked, shape.headers.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, Classify,
                         ::testing::Values(core::IpAlgorithm::kMbt,
                                           core::IpAlgorithm::kBst,
                                           core::IpAlgorithm::kRvh),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

// The dataplane worker calls classify() for each packet of its batch, so
// the per-packet charges the engine delivers (the scenario reports'
// lookup cycles and memory accesses) are classify()'s.
TEST(ClassifyBatch, DataplaneWorkerChargesScalarCosts) {
  const Shape shape = shapes()[3];  // fw-zipf: heavy combination reuse
  core::ClassifierConfig cfg = core::ClassifierConfig::for_scale(512);
  cfg.combine_mode = core::CombineMode::kCrossProduct;
  dataplane::RuleProgramPublisher programs(cfg);
  programs.install_ruleset(shape.rules);
  net::Trace trace;
  for (const net::FiveTuple& t : shape.headers) trace.add({t, std::nullopt});
  dataplane::TrafficPool pool =
      dataplane::TrafficPool::from_trace(trace, /*materialize=*/false);
  dataplane::Engine engine({.workers = 1, .batch_size = 32,
                            .capture_verdicts = true},
                           programs);
  const dataplane::EngineReport rep = engine.run(pool);
  ASSERT_EQ(rep.captured.size(), 1u);
  ASSERT_EQ(rep.captured[0].size(), shape.headers.size());
  const core::ConfigurableClassifier& clf = programs.acquire()->classifier();
  for (usize i = 0; i < rep.captured[0].size(); ++i) {
    const dataplane::CapturedVerdict& v = rep.captured[0][i];
    const core::ClassifyResult want = clf.classify(v.tuple);
    ASSERT_EQ(v.match, want.match) << "packet " << i;
    ASSERT_EQ(v.cycles, want.cycles) << "packet " << i;
    ASSERT_EQ(v.memory_accesses, want.memory_accesses) << "packet " << i;
  }
}

}  // namespace
