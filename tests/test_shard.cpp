/// Tests for the RSS-style sharded runtime: steering determinism and
/// uniformity, the invariant that the shard rows sum to the engine
/// totals, and per-shard verdict capture.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "common/error.hpp"
#include "dataplane/engine.hpp"
#include "dataplane/flow_steer.hpp"
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

net::FiveTuple tuple_of(u32 a, u32 b, u16 sp, u16 dp, u8 proto) {
  net::FiveTuple t;
  t.src_ip = a;
  t.dst_ip = b;
  t.src_port = sp;
  t.dst_port = dp;
  t.protocol = proto;
  return t;
}

}  // namespace

// ---- steering hash --------------------------------------------------------

TEST(FlowSteer, SameTupleAlwaysSameShard) {
  Rng rng(7);
  for (usize nshards : {1u, 2u, 3u, 4u, 7u, 16u}) {
    for (int i = 0; i < 500; ++i) {
      const net::FiveTuple t =
          tuple_of(static_cast<u32>(rng.next()), static_cast<u32>(rng.next()),
                   static_cast<u16>(rng.next()),
                   static_cast<u16>(rng.next()),
                   rng.next() % 2 == 0 ? net::kProtoTcp : net::kProtoUdp);
      const usize s = shard_of(t, nshards);
      EXPECT_LT(s, nshards);
      EXPECT_EQ(s, shard_of(t, nshards));  // deterministic
    }
  }
}

TEST(FlowSteer, ShardHistogramRoughlyUniformOverFlows) {
  // Steering is per-flow, so uniformity is a property of distinct
  // tuples (packet counts follow flow popularity, which may be skewed).
  Rng rng(2026);
  constexpr usize kShards = 4;
  constexpr usize kFlows = 8000;
  std::array<usize, kShards> hist{};
  for (usize i = 0; i < kFlows; ++i) {
    const net::FiveTuple t =
        tuple_of(static_cast<u32>(rng.next()), static_cast<u32>(rng.next()),
                 static_cast<u16>(rng.next()),
                 static_cast<u16>(rng.next()), net::kProtoTcp);
    ++hist[shard_of(t, kShards)];
  }
  // Expected 2000 per shard; a mix64 avalanche keeps every bucket well
  // within +/- 20% at this sample size.
  for (usize s = 0; s < kShards; ++s) {
    EXPECT_GT(hist[s], kFlows / kShards * 8 / 10) << "shard " << s;
    EXPECT_LT(hist[s], kFlows / kShards * 12 / 10) << "shard " << s;
  }
}

TEST(FlowSteer, SteerSplitPreservesEveryEntryOnItsHashedShard) {
  auto rules = ruleset::make_classbench_like(ruleset::FilterType::kAcl, 1000);
  ruleset::TraceGenerator tg(rules, {.headers = 3000, .seed = 9});
  const net::Trace trace = tg.generate();
  TrafficPool pool = TrafficPool::from_trace(trace, /*materialize=*/false);

  const std::vector<TrafficPool> parts = steer_split(pool, 4);
  ASSERT_EQ(parts.size(), 4u);
  usize total = 0;
  for (usize s = 0; s < parts.size(); ++s) {
    total += parts[s].size();
    for (const net::FiveTuple& t : parts[s].tuples()) {
      EXPECT_EQ(shard_of(t, 4), s);
    }
  }
  EXPECT_EQ(total, trace.size());
  EXPECT_THROW((void)steer_split(pool, 0), ConfigError);
}

// ---- replica-mode engine --------------------------------------------------

TEST(ReplicaEngine, SumOfShardsEqualsEngineTotals) {
  auto rules = ruleset::make_classbench_like(ruleset::FilterType::kAcl, 1000);
  ruleset::TraceGenerator tg(rules, {.headers = 4000, .seed = 17});
  const net::Trace trace = tg.generate();
  RuleProgramPublisher programs(exact_config(rules.size()));
  programs.install_ruleset(rules);

  // Single-threaded reference for the verdict totals.
  const OracleCheck want =
      SnapshotOracle(rules).check(programs.acquire()->classifier(), trace);
  ASSERT_TRUE(want.ok()) << want.first_mismatch;

  TrafficPool pool = TrafficPool::from_trace(trace, /*materialize=*/false);
  Engine engine({.workers = 4, .batch_size = 32, .flow_cache_depth = 256},
                programs);
  const EngineReport rep = engine.run(pool);

  ASSERT_TRUE(rep.first_error().empty()) << rep.first_error();
  ASSERT_EQ(rep.workers.size(), 4u);  // per-thread merged rows
  ASSERT_EQ(rep.shards.size(), 4u);   // raw per-shard rows
  EXPECT_EQ(rep.packets(), trace.size());
  EXPECT_EQ(rep.matched(), want.oracle_matched);

  // Every counter row: merged shard rows equal merged per-thread rows.
  const WorkerReport all = merge_reports(0, rep.workers);
  EXPECT_TRUE(merge_reports(0, rep.shards).counters == all.counters);

  // The steering invariant end-to-end: merged latency count == packets.
  EXPECT_EQ(all.latency.count(), trace.size());
}

TEST(ReplicaEngine, CaptureStreamsHonorSteering) {
  auto rules = ruleset::make_classbench_like(ruleset::FilterType::kAcl, 1000);
  ruleset::TraceGenerator tg(rules, {.headers = 1500, .seed = 23});
  const net::Trace trace = tg.generate();
  RuleProgramPublisher programs(exact_config(rules.size()));
  programs.install_ruleset(rules);

  TrafficPool pool = TrafficPool::from_trace(trace, /*materialize=*/false);
  Engine engine({.workers = 4,
                 .batch_size = 16,
                 .telemetry = false,
                 .capture_verdicts = true},
                programs);
  const EngineReport rep = engine.run(pool);
  ASSERT_EQ(rep.captured.size(), 4u);
  usize total = 0;
  for (usize s = 0; s < rep.captured.size(); ++s) {
    total += rep.captured[s].size();
    for (const CapturedVerdict& cv : rep.captured[s]) {
      EXPECT_EQ(shard_of(cv.tuple, 4), s);
    }
  }
  EXPECT_EQ(total, trace.size());

  // Capture is finite-only: a loop-mode engine that cannot honour it is
  // rejected at start(), never run without the log.
  Engine loopy({.workers = 2, .loop = true, .capture_verdicts = true},
               programs);
  TrafficPool loop_pool;
  loop_pool.add(tuple_of(1, 2, 3, 4, net::kProtoTcp));
  EXPECT_THROW(loopy.start(loop_pool), ConfigError);
}
