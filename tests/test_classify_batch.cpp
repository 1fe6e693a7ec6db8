// Batch-vs-scalar equivalence of the lookup entry points.
//
// The contract under test (see ClassifyResult's doc comment):
// classify_batch() returns, per packet, a ClassifyResult field-for-field
// equal to classify() — verdict, cycles, memory_accesses and
// crossproduct_probes — and under CrossProduct both agree with the
// baseline::LinearSearch oracle. Covered for every IP backend, both
// combine modes, batch sizes straddling the default capacity, and the
// workload shapes that stress the lookup differently: fw-like
// (wildcard-heavy lists), acl/ipc, Zipf flows (heavy repeats), trie
// depth and cache thrash (every packet a distinct flow). A dataplane
// worker, which calls classify_batch() batch after batch, delivers the
// same per-packet charges.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "core/classifier.hpp"
#include "dataplane/engine.hpp"
#include "workload/ruleset_synth.hpp"
#include "workload/trace_synth.hpp"

using namespace pclass;

namespace {

constexpr usize kBatchSizes[] = {1, 31, 32, 33, 256};

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

struct DeviceCase {
  core::IpAlgorithm alg;
  core::CombineMode mode;
};

class ClassifyBatch : public ::testing::TestWithParam<DeviceCase> {};

TEST_P(ClassifyBatch, EqualsClassifyFieldForField) {
  const DeviceCase& dc = GetParam();
  for (const Shape& shape : shapes()) {
    SCOPED_TRACE(shape.name);
    core::ClassifierConfig cfg = core::ClassifierConfig::for_scale(512);
    cfg.ip_algorithm = dc.alg;
    cfg.combine_mode = dc.mode;
    core::ConfigurableClassifier clf(cfg);
    clf.add_rules(shape.rules);
    const std::span<const net::FiveTuple> in = shape.headers;

    std::vector<core::ClassifyResult> want;
    want.reserve(in.size());
    for (const auto& t : in) want.push_back(clf.classify(t));

    if (dc.mode == core::CombineMode::kCrossProduct) {
      const dataplane::SnapshotOracle oracle(shape.rules);
      dataplane::OracleCheck check;
      for (usize i = 0; i < in.size(); ++i) {
        ASSERT_TRUE(oracle.judge(in[i], want[i].match, check))
            << "packet " << i << ": " << check.first_mismatch;
      }
    }

    std::vector<core::ClassifyResult> got;
    for (const usize batch : kBatchSizes) {
      got.assign(in.size(), {});
      for (usize off = 0; off < in.size(); off += batch) {
        const usize len = std::min(batch, in.size() - off);
        clf.classify_batch(in.subspan(off, len),
                           std::span(got).subspan(off, len));
      }
      for (usize i = 0; i < in.size(); ++i) {
        ASSERT_EQ(got[i].match, want[i].match)
            << "batch " << batch << ", packet " << i;
        ASSERT_EQ(got[i].cycles, want[i].cycles)
            << "batch " << batch << ", packet " << i;
        ASSERT_EQ(got[i].memory_accesses, want[i].memory_accesses)
            << "batch " << batch << ", packet " << i;
        ASSERT_EQ(got[i].crossproduct_probes, want[i].crossproduct_probes)
            << "batch " << batch << ", packet " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Devices, ClassifyBatch,
    ::testing::Values(
        DeviceCase{core::IpAlgorithm::kMbt, core::CombineMode::kCrossProduct},
        DeviceCase{core::IpAlgorithm::kBst, core::CombineMode::kCrossProduct},
        DeviceCase{core::IpAlgorithm::kRvh, core::CombineMode::kCrossProduct},
        DeviceCase{core::IpAlgorithm::kMbt, core::CombineMode::kFirstLabel},
        DeviceCase{core::IpAlgorithm::kBst, core::CombineMode::kFirstLabel},
        DeviceCase{core::IpAlgorithm::kRvh, core::CombineMode::kFirstLabel}),
    [](const auto& info) {
      const DeviceCase& dc = info.param;
      std::string name = to_string(dc.alg);
      name += dc.mode == core::CombineMode::kCrossProduct ? "_cross"
                                                          : "_first";
      return name;
    });

// The dataplane worker classifies through classify_batch() batch after
// batch on one element, so the per-packet charges the engine delivers
// (the scenario reports' lookup cycles and memory accesses) are the
// scalar ones too.
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
