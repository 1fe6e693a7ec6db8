/// Tests for the batched multi-worker dataplane runtime: element graph
/// wiring, batch boundary conditions, snapshot publication under a
/// concurrent writer (no torn reads, monotonic versions), and engine
/// end-to-end agreement with the single-threaded classifier.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "baseline/linear_search.hpp"
#include "common/error.hpp"
#include "dataplane/engine.hpp"
#include "ruleset/generator.hpp"
#include "ruleset/trace_gen.hpp"

using namespace pclass;
using namespace pclass::dataplane;
using telemetry::Counter;

namespace {

/// A rule matching exactly src_ip == 10.0.(i>>8).(i&255), any dst/port.
ruleset::Rule probe_rule(u32 i) {
  ruleset::Rule r;
  r.src_ip = ruleset::IpPrefix::make(0x0A000000u | (i & 0xFFFFu), 32);
  r.id = RuleId{i};
  r.priority = i;
  r.action = ruleset::Action{sdn::ActionSpec::output(1).encode()};
  return r;
}

net::FiveTuple probe_tuple(u32 i) {
  net::FiveTuple t;
  t.src_ip = 0x0A000000u | (i & 0xFFFFu);
  t.dst_ip = 0x01020304u;
  t.protocol = net::kProtoTcp;
  return t;
}

sdn::Message add_msg(u32 i) {
  sdn::FlowMod fm;
  fm.command = sdn::FlowMod::Command::kAdd;
  fm.cookie = RuleId{i};
  fm.match = probe_rule(i);
  fm.action = sdn::ActionSpec::output(1);
  return fm;
}

/// An element that just counts what flows through it.
class CountingElement : public Element {
 public:
  CountingElement() : Element("counter") {}
  void push_batch(net::PacketBatch& b) override {
    ++batches;
    packets += b.size();
    forward(b);
  }
  u64 batches = 0;
  u64 packets = 0;
};

core::ClassifierConfig small_config() {
  core::ClassifierConfig cfg = core::ClassifierConfig::for_scale(1000);
  // The synthetic probe rules are hundreds of distinct /32s under one
  // /16; the compact BST holds them comfortably at this scale.
  cfg.ip_algorithm = core::IpAlgorithm::kBst;
  return cfg;
}

}  // namespace

// ---- PacketBatch ----------------------------------------------------------

TEST(PacketBatch, CapacityAndBoundaries) {
  net::PacketBatch b(4);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.capacity(), 4u);
  for (u32 i = 0; i < 4; ++i) {
    EXPECT_TRUE(b.push(probe_tuple(i)));
  }
  EXPECT_TRUE(b.full());
  EXPECT_FALSE(b.push(probe_tuple(99)));  // over capacity: rejected
  EXPECT_EQ(b.size(), 4u);
  b.clear();
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.capacity(), 4u);
}

TEST(TrafficPool, RejectsMixedEntryKinds) {
  TrafficPool tuple_pool;
  tuple_pool.add(probe_tuple(1));
  EXPECT_THROW(tuple_pool.add(net::make_packet(probe_tuple(2))), Error);

  TrafficPool packet_pool;
  packet_pool.add(net::make_packet(probe_tuple(1)));
  EXPECT_THROW(packet_pool.add(probe_tuple(2)), Error);
}

// ---- element graph wiring -------------------------------------------------

TEST(ElementGraph, WiringForwardsDownstream) {
  RuleProgramPublisher programs(small_config());
  programs.apply(add_msg(1));

  Pipeline p;
  auto* counter_in = p.emplace<CountingElement>();
  auto* parser = p.emplace<Parser>();
  auto* clf = p.emplace<ClassifierElement>(&programs);
  auto* counter_out = p.emplace<CountingElement>();
  auto* sink = p.emplace<ActionSink>();
  ASSERT_EQ(p.size(), 5u);
  EXPECT_EQ(counter_in->next(), parser);
  EXPECT_EQ(parser->next(), clf);
  EXPECT_EQ(clf->next(), counter_out);
  EXPECT_EQ(counter_out->next(), sink);
  EXPECT_EQ(sink->next(), nullptr);

  net::PacketBatch b(8);
  b.push(probe_tuple(1));
  b.push(probe_tuple(2));  // no rule for it: miss
  p.push_batch(b);

  EXPECT_EQ(counter_in->packets, 2u);
  EXPECT_EQ(counter_out->packets, 2u);
  EXPECT_EQ(sink->packets(), 2u);
  EXPECT_EQ(sink->matched(), 1u);
  EXPECT_EQ(sink->dropped(), 1u);
  EXPECT_EQ(b.rule_version, 1u);
  EXPECT_TRUE(b.meta(0).matched);
  EXPECT_EQ(b.meta(0).rule, RuleId{1});
  EXPECT_FALSE(b.meta(1).matched);
}

TEST(ElementGraph, ParserHandlesRawAndMalformedPackets) {
  RuleProgramPublisher programs(small_config());
  programs.apply(add_msg(7));

  Pipeline p;
  auto* parser = p.emplace<Parser>();
  p.emplace<ClassifierElement>(&programs);
  auto* sink = p.emplace<ActionSink>();

  const net::Packet good = net::make_packet(probe_tuple(7));
  net::Packet bad;
  bad.bytes = {0xDE, 0xAD};  // truncated garbage

  net::PacketBatch b(8);
  b.push(&good);
  b.push(&bad);
  p.push_batch(b);

  EXPECT_EQ(parser->parsed(), 1u);
  EXPECT_EQ(parser->errors(), 1u);
  EXPECT_EQ(sink->matched(), 1u);
  EXPECT_EQ(sink->dropped(), 1u);
  EXPECT_TRUE(b.meta(1).parse_error);
}

// ---- batch boundaries through a full pipeline -----------------------------

TEST(BatchBoundaries, EmptyBatchOfOneAndOverCapacity) {
  RuleProgramPublisher programs(small_config());
  programs.apply(add_msg(3));

  Pipeline p;
  auto* parser = p.emplace<Parser>();
  auto* clf = p.emplace<ClassifierElement>(&programs);
  auto* sink = p.emplace<ActionSink>();
  (void)parser;

  // Empty batch: flows through, touches nothing.
  net::PacketBatch empty(4);
  p.push_batch(empty);
  EXPECT_EQ(sink->packets(), 0u);
  EXPECT_EQ(clf->lookups(), 0u);
  EXPECT_EQ(empty.rule_version, 1u);  // still stamped

  // Batch of one.
  net::PacketBatch one(4);
  one.push(probe_tuple(3));
  p.push_batch(one);
  EXPECT_EQ(sink->packets(), 1u);
  EXPECT_EQ(sink->matched(), 1u);

  // A pool larger than the batch capacity drains over several batches.
  TrafficPool pool;
  const usize kPackets = 10;  // capacity 4 -> batches of 4/4/2
  for (u32 i = 0; i < kPackets; ++i) pool.add(probe_tuple(3));
  PacketSource source(&pool, /*loop=*/false);
  source.connect(p.head());
  net::PacketBatch scratch(4);
  usize batches = 0;
  while (true) {
    source.push_batch(scratch);
    if (source.exhausted()) break;
    ++batches;
  }
  EXPECT_EQ(batches, 3u);
  EXPECT_EQ(sink->packets(), 1u + kPackets);
  EXPECT_EQ(sink->matched(), 1u + kPackets);
}

// ---- rule-program snapshots ----------------------------------------------

// ---- WorkerBudget ---------------------------------------------------------

TEST(WorkerBudget, AcquireClampsBlocksAndTracksPeak) {
  EXPECT_THROW(WorkerBudget{0}, ConfigError);
  WorkerBudget b(2);
  EXPECT_EQ(b.capacity(), 2u);
  // Over-asks are clamped to the capacity, never deadlocked.
  EXPECT_EQ(b.acquire(5), 2u);
  EXPECT_EQ(b.in_use(), 2u);

  // A second acquire must block until the grant comes back.
  std::atomic<bool> got{false};
  std::thread waiter([&] {
    const usize g = b.acquire(1);
    got.store(true);
    b.release(g);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(got.load());
  b.release(2);
  waiter.join();
  EXPECT_TRUE(got.load());
  EXPECT_EQ(b.in_use(), 0u);
  EXPECT_EQ(b.peak_in_use(), 2u);  // never above capacity
  // Releasing more than held is a bug, not a no-op.
  EXPECT_THROW(b.release(1), InternalError);
}

TEST(WorkerBudget, EngineRunsWithTheGrantedWorkerCount) {
  RuleProgramPublisher programs(small_config());
  for (u32 i = 0; i < 64; ++i) programs.apply(add_msg(i));
  TrafficPool pool;
  for (u32 i = 0; i < 512; ++i) pool.add(probe_tuple(i % 64));

  WorkerBudget budget(2);
  Engine engine({.workers = 4, .batch_size = 16, .budget = &budget},
                programs);
  const EngineReport rep = engine.run(pool);
  // The budget clamped the engine to 2 workers, all packets still flowed.
  EXPECT_EQ(rep.workers.size(), 2u);
  EXPECT_EQ(rep.packets(), 512u);
  EXPECT_EQ(budget.in_use(), 0u);      // released after the run
  EXPECT_EQ(budget.peak_in_use(), 2u);
}

TEST(RuleProgram, VersionsCountUpdatesAndFailedBatchesRollBack) {
  RuleProgramPublisher programs(small_config());
  EXPECT_EQ(programs.version(), 0u);
  programs.apply(add_msg(1));
  programs.apply(add_msg(2));
  EXPECT_EQ(programs.version(), 2u);
  EXPECT_EQ(programs.acquire()->rule_count(), 2u);
  // Each update is accepted once, even though the standby replica also
  // re-applies older entries while catching up.
  EXPECT_EQ(programs.stats().updates_applied, 2u);

  // A batch whose last update is invalid (duplicate id) must leave no
  // trace: same version, same rule count, and later updates still work.
  std::vector<sdn::Message> batch = {add_msg(3), add_msg(3)};
  EXPECT_THROW(programs.apply_batch(batch), Error);
  EXPECT_EQ(programs.version(), 2u);
  EXPECT_EQ(programs.acquire()->rule_count(), 2u);
  programs.apply(add_msg(4));
  EXPECT_EQ(programs.version(), 3u);
  EXPECT_EQ(programs.acquire()->rule_count(), 3u);
  EXPECT_EQ(programs.stats().updates_applied, 3u);
}

TEST(RuleProgram, SnapshotSwapUnderConcurrentWriter) {
  RuleProgramPublisher programs(small_config());
  constexpr u32 kUpdates = 400;
  constexpr usize kReaders = 4;

  // Readers classify probe tuples against the acquired snapshot. The
  // consistency invariant of the publisher: snapshot version v contains
  // exactly rules {1..v}, so tuple i must match iff i <= v. Any torn
  // state (rule visible before its version, or missing after) fails.
  std::atomic<bool> stop{false};
  std::atomic<u64> violations{0};
  std::atomic<u64> reads{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (usize r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      u64 last_version = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snap = programs.acquire();
        const u64 v = snap->version();
        if (v < last_version) {
          violations.fetch_add(1);  // non-monotonic acquire
        }
        last_version = v;
        if (snap->rule_count() != v) {
          violations.fetch_add(1);  // version/content mismatch
        }
        // Spot-check three tuples around the frontier.
        for (const u64 probe :
             {u64{1}, v > 0 ? v : u64{1}, u64{v + 1}}) {
          if (probe > kUpdates) continue;
          const auto res = snap->classifier().classify(
              probe_tuple(static_cast<u32>(probe)));
          const bool should_match = probe >= 1 && probe <= v;
          if (res.match.has_value() != should_match) {
            violations.fetch_add(1);
          }
        }
        reads.fetch_add(1);
      }
    });
  }

  for (u32 i = 1; i <= kUpdates; ++i) {
    programs.apply(add_msg(i));
  }
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(programs.version(), kUpdates);
  EXPECT_EQ(programs.stats().publishes, kUpdates);
}

TEST(RuleProgram, EngineObservesMonotonicVersionsDuringUpdateStorm) {
  RuleProgramPublisher programs(small_config());
  programs.apply(add_msg(1));

  TrafficPool pool;
  for (u32 i = 1; i <= 64; ++i) pool.add(probe_tuple(i % 8 + 1));

  Engine engine({.workers = 2, .batch_size = 8, .loop = true}, programs);
  engine.start(pool);
  for (u32 i = 2; i <= 200; ++i) {
    programs.apply(add_msg(i));
  }
  const EngineReport rep = engine.stop();

  EXPECT_TRUE(merge_reports(0, rep.workers).version_monotonic);
  EXPECT_GT(rep.packets(), 0u);
  for (const auto& w : rep.workers) {
    EXPECT_GE(w.counters[Counter::snapshot_version], w.min_version);
    EXPECT_LE(w.counters[Counter::snapshot_version], 200u);
  }
}

// ---- engine end-to-end ----------------------------------------------------

TEST(Engine, MultiWorkerMatchesSingleThreadedOracle) {
  auto rules = ruleset::make_classbench_like(ruleset::FilterType::kAcl, 1000);
  core::ClassifierConfig cfg = core::ClassifierConfig::for_scale(rules.size());
  cfg.combine_mode = core::CombineMode::kCrossProduct;

  RuleProgramPublisher programs(cfg);
  programs.install_ruleset(rules);

  ruleset::TraceGenerator tg(rules, {.headers = 2000, .seed = 5});
  const auto trace = tg.generate();

  // Single-threaded reference counts.
  baseline::LinearSearch oracle(rules);
  usize want_matched = 0;
  for (const auto& e : trace) {
    if (oracle.classify(e.header, nullptr) != nullptr) ++want_matched;
  }

  TrafficPool pool = TrafficPool::from_trace(trace, /*materialize=*/false);
  Engine engine({.workers = 3, .batch_size = 32, .flow_cache_depth = 1024},
                programs);
  const EngineReport rep = engine.run(pool);

  EXPECT_EQ(rep.packets(), trace.size());
  EXPECT_EQ(rep.matched(), want_matched);
  EXPECT_TRUE(merge_reports(0, rep.workers).version_monotonic);
  // Work was actually spread over the workers.
  usize active_workers = 0;
  for (const auto& w : rep.workers) {
    if (w.counters[Counter::packets] > 0) ++active_workers;
    EXPECT_EQ(w.counters[Counter::parse_errors], 0u);
  }
  EXPECT_GE(active_workers, 2u);
  // Latency percentiles come out ordered.
  const auto lat = merge_reports(0, rep.workers).latency;
  EXPECT_LE(lat.percentile(50), lat.percentile(99));
  EXPECT_GE(lat.max(), lat.min());
}

TEST(FlowCacheElement, ServesRepeatsAndFlushesOnVersionBump) {
  RuleProgramPublisher programs(small_config());
  programs.apply(add_msg(5));

  Pipeline p;
  auto* cache = p.emplace<FlowCacheElement>(&programs, 256);
  p.emplace<ClassifierElement>(&programs, cache);
  auto* sink = p.emplace<ActionSink>();

  net::PacketBatch b(4);
  b.push(probe_tuple(5));
  p.push_batch(b);  // miss -> full lookup -> fill
  b.clear();
  b.push(probe_tuple(5));
  p.push_batch(b);  // repeat flow: served by the cache
  EXPECT_EQ(sink->matched(), 2u);
  EXPECT_EQ(cache->stats().hits, 1u);

  // A rule update bumps the version; the stale verdict must not outlive
  // the flush.
  sdn::FlowMod del;
  del.command = sdn::FlowMod::Command::kDelete;
  del.cookie = RuleId{5};
  programs.apply(del);

  b.clear();
  b.push(probe_tuple(5));
  p.push_batch(b);
  EXPECT_EQ(cache->stats().invalidations, 1u);
  EXPECT_EQ(cache->stats().hits, 1u);  // not served from the stale line
  EXPECT_EQ(sink->matched(), 2u);      // rule is gone: miss
  EXPECT_EQ(b.rule_version, 2u);
}

TEST(Engine, SingleWorkerCacheHitsOnRepeatedFlows) {
  RuleProgramPublisher programs(small_config());
  programs.apply(add_msg(9));

  // 64 copies of one flow, batch size 16: batch 1 fills the cache, the
  // remaining 3 batches hit it.
  TrafficPool pool;
  for (u32 i = 0; i < 64; ++i) pool.add(probe_tuple(9));
  Engine engine({.workers = 1, .batch_size = 16, .flow_cache_depth = 64},
                programs);
  const EngineReport rep = engine.run(pool);
  ASSERT_EQ(rep.workers.size(), 1u);
  EXPECT_EQ(rep.workers[0].counters[Counter::packets], 64u);
  EXPECT_EQ(rep.workers[0].counters[Counter::cache_hits], 48u);
  EXPECT_GT(rep.workers[0].counters.cache_hit_rate(), 0.7);
  EXPECT_EQ(rep.workers[0].counters[Counter::classifier_lookups], 16u);
}

TEST(Engine, RawPacketPathParsesOnWorkers) {
  auto rules = ruleset::make_classbench_like(ruleset::FilterType::kIpc, 1000);
  RuleProgramPublisher programs(
      core::ClassifierConfig::for_scale(rules.size()));
  programs.install_ruleset(rules);

  ruleset::TraceGenerator tg(rules, {.headers = 300, .seed = 3});
  TrafficPool pool =
      TrafficPool::from_trace(tg.generate(), /*materialize=*/true);

  Engine engine({.workers = 2, .batch_size = 16}, programs);
  const EngineReport rep = engine.run(pool);
  EXPECT_EQ(rep.packets(), 300u);
  EXPECT_EQ(merge_reports(0, rep.workers).counters[Counter::classifier_lookups],
            300u);  // no flow cache: every packet classified
}
