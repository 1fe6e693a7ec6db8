/// Tests for the batched multi-worker dataplane runtime: the element
/// chain, batch boundary conditions, snapshot publication under a
/// concurrent writer (no torn reads, monotonic versions), and engine
/// end-to-end agreement with the single-threaded classifier.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <optional>
#include <span>
#include <tuple>
#include <thread>

#include "common/error.hpp"
#include "common/random.hpp"
#include "dataplane/engine.hpp"
#include "ruleset/generator.hpp"
#include "ruleset/trace_gen.hpp"

using namespace pclass;
using namespace pclass::dataplane;
using telemetry::Counter;
using telemetry::EngineCounter;

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

/// A TCP rule on dst port 80; \p narrow restricts it to src ports
/// 0-32767.
sdn::FlowMod port80_add(u32 id, Priority priority, bool narrow,
                        sdn::ActionSpec action) {
  sdn::FlowMod fm;
  fm.command = sdn::FlowMod::Command::kAdd;
  fm.cookie = RuleId{id};
  fm.match.id = RuleId{id};
  fm.match.priority = priority;
  fm.match.dst_port = ruleset::PortRange::exact(80);
  if (narrow) fm.match.src_port = ruleset::PortRange::make(0, 32767);
  fm.match.proto = ruleset::ProtoMatch::exact(net::kProtoTcp);
  fm.action = action;
  return fm;
}

core::ClassifierConfig small_config() {
  core::ClassifierConfig cfg = core::ClassifierConfig::for_scale(1000);
  // The synthetic probe rules are hundreds of distinct /32s under one
  // /16; the compact BST holds them comfortably at this scale.
  cfg.ip_algorithm = core::IpAlgorithm::kBst;
  return cfg;
}

/// small_config() with the exact combine: the flow cache then drops only
/// the lines an update can change.
core::ClassifierConfig exact_config() {
  core::ClassifierConfig cfg = small_config();
  cfg.combine_mode = core::CombineMode::kCrossProduct;
  return cfg;
}

/// Parser -> [flow cache] -> classifier -> sink, without a source:
/// push() sends one hand-built batch through push_chain(). A
/// \p cache_depth of 0 leaves the cache out, as the engine does.
struct Chain {
  explicit Chain(const RuleProgramPublisher* programs,
                 u32 cache_depth = 1024)
      : cache(cache_depth == 0 ? std::nullopt
                               : std::make_optional<FlowCacheElement>(
                                     programs, cache_depth)),
        classifier(programs, cache ? &*cache : nullptr) {}

  void push(net::PacketBatch& batch) {
    ASSERT_TRUE(push_chain(batch, nullptr, parser, cache ? &*cache : nullptr,
                           classifier, sink));
  }

  /// Push \p flows as one batch; the batch is left for inspection.
  net::PacketBatch& push(std::initializer_list<net::FiveTuple> flows) {
    b.clear();
    for (const net::FiveTuple& t : flows) b.push(t);
    push(b);
    return b;
  }

  Parser parser;
  std::optional<FlowCacheElement> cache;
  ClassifierElement classifier;
  ActionSink sink;
  net::PacketBatch b{16};
};

sdn::Message delete_msg(u32 id) {
  sdn::FlowMod fm;
  fm.command = sdn::FlowMod::Command::kDelete;
  fm.cookie = RuleId{id};
  return fm;
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

// ---- the element chain ----------------------------------------------------

TEST(ElementChain, ClassifiesAndCountsABatch) {
  RuleProgramPublisher programs(small_config());
  programs.apply(add_msg(1));
  Chain c(&programs, /*cache_depth=*/0);

  const net::PacketBatch& b =
      c.push({probe_tuple(1), probe_tuple(2)});  // no rule for 2: miss

  EXPECT_EQ(c.classifier.lookups(), 2u);
  EXPECT_EQ(c.sink.packets(), 2u);
  EXPECT_EQ(c.sink.matched(), 1u);
  EXPECT_EQ(c.sink.dropped(), 1u);
  EXPECT_EQ(b.rule_version, 1u);
  EXPECT_TRUE(b.meta(0).matched);
  EXPECT_EQ(b.meta(0).rule, RuleId{1});
  EXPECT_FALSE(b.meta(1).matched);
}

TEST(ElementChain, ParserHandlesRawAndMalformedPackets) {
  RuleProgramPublisher programs(small_config());
  programs.apply(add_msg(7));
  Chain c(&programs, /*cache_depth=*/0);

  const net::Packet good = net::make_packet(probe_tuple(7));
  net::Packet bad;
  bad.bytes = {0xDE, 0xAD};  // truncated garbage

  net::PacketBatch b(8);
  b.push(&good);
  b.push(&bad);
  c.push(b);

  EXPECT_EQ(c.parser.parsed(), 1u);
  EXPECT_EQ(c.parser.errors(), 1u);
  EXPECT_EQ(c.sink.matched(), 1u);
  EXPECT_EQ(c.sink.dropped(), 1u);
  EXPECT_TRUE(b.meta(1).parse_error);
}

// ---- batch boundaries through a full pipeline -----------------------------

TEST(BatchBoundaries, EmptyBatchOfOneAndOverCapacity) {
  RuleProgramPublisher programs(small_config());
  programs.apply(add_msg(3));
  Chain c(&programs, /*cache_depth=*/0);

  // Empty batch: flows through, touches nothing.
  net::PacketBatch empty(4);
  c.push(empty);
  EXPECT_EQ(c.sink.packets(), 0u);
  EXPECT_EQ(c.classifier.lookups(), 0u);
  EXPECT_EQ(empty.rule_version, 1u);  // still stamped

  // Batch of one.
  net::PacketBatch one(4);
  one.push(probe_tuple(3));
  c.push(one);
  EXPECT_EQ(c.sink.packets(), 1u);
  EXPECT_EQ(c.sink.matched(), 1u);

  // A pool larger than the batch capacity drains over several batches;
  // the chain reports the dry source and runs nothing after it.
  TrafficPool pool;
  const usize kPackets = 10;  // capacity 4 -> batches of 4/4/2
  for (u32 i = 0; i < kPackets; ++i) pool.add(probe_tuple(3));
  PacketSource source(&pool, /*loop=*/false);
  net::PacketBatch scratch(4);
  usize batches = 0;
  while (push_chain(scratch, &source, c.parser, nullptr, c.classifier,
                    c.sink)) {
    ++batches;
  }
  EXPECT_EQ(batches, 3u);
  EXPECT_TRUE(scratch.empty());
  EXPECT_EQ(c.sink.packets(), 1u + kPackets);
  EXPECT_EQ(c.sink.matched(), 1u + kPackets);
  EXPECT_EQ(c.classifier.lookups(), 1u + kPackets);
}

// ---- rule-program snapshots ----------------------------------------------

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

// ---- standby levelling: a copy equals a replay ---------------------------

namespace {

/// What a replica shows from outside: its memory map, its installed
/// rules (when asked for), and verdict and charges of every lookup of
/// \p headers.
struct ReplicaView {
  std::vector<std::tuple<std::string, u64, u64>> blocks;  // name, cap, used
  u64 register_bits = 0;
  std::vector<std::string> rules;
  std::vector<std::tuple<Verdict, u64, u64, u64>> lookups;

  bool operator==(const ReplicaView&) const = default;
};

ReplicaView view_of(const core::ConfigurableClassifier& clf,
                    std::span<const net::FiveTuple> headers,
                    bool with_rules = true) {
  ReplicaView v;
  const core::MemoryReport mem = clf.memory_report();
  for (const core::MemoryBlockReport& b : mem.blocks) {
    v.blocks.emplace_back(b.name, b.capacity_bits, b.used_bits);
  }
  v.register_bits = mem.register_bits;
  for (const ruleset::Rule& r :
       with_rules ? clf.installed_rules() : std::vector<ruleset::Rule>{}) {
    v.rules.push_back(ruleset::to_string(r) + " id " +
                      std::to_string(r.id.value) + " priority " +
                      std::to_string(r.priority) + " action " +
                      std::to_string(r.action.token));
  }
  for (const net::FiveTuple& h : headers) {
    const core::ClassifyResult res = clf.classify(h);
    v.lookups.emplace_back(res.match, res.cycles, res.memory_accesses,
                           res.crossproduct_probes);
  }
  return v;
}

/// Updates the published snapshot records: all kMaxRecordedUpdates once
/// more than that many were applied.
usize recorded_updates(const RuleProgram& p) {
  for (u64 from = 0; from <= p.version(); ++from) {
    if (const auto u = p.updates_since(from)) return u->size();
  }
  return 0;
}

/// An add aimed at \p t (random prefix lengths, ports exact or wild) or
/// the removal of a random installed rule, alternately.
sdn::Message aimed_update(usize step, const net::FiveTuple& t,
                          const std::vector<ruleset::Rule>& installed,
                          Rng& rng) {
  if (step % 2 == 1) {
    return delete_msg(installed[rng.below(installed.size())].id.value);
  }
  constexpr std::array<u8, 4> kLens = {8, 16, 24, 32};
  ruleset::Rule r;
  r.src_ip = ruleset::IpPrefix::make(t.src_ip, kLens[rng.below(4)]);
  r.dst_ip = ruleset::IpPrefix::make(t.dst_ip, kLens[rng.below(4)]);
  if (rng.below(2) == 0) r.src_port = ruleset::PortRange::exact(t.src_port);
  if (rng.below(2) == 0) r.dst_port = ruleset::PortRange::exact(t.dst_port);
  r.proto = ruleset::ProtoMatch::exact(t.protocol);
  r.priority = static_cast<Priority>(rng.below(1200));
  r.id = RuleId{static_cast<u32>(30'000 + step)};
  return sdn::FlowMod::add(r, sdn::ActionSpec::output(1 + step % 7));
}

}  // namespace

TEST(RuleProgramPublisher, CopiedStandbyEqualsReplayedStandby) {
  const ruleset::RuleSet rules =
      ruleset::make_classbench_like(ruleset::FilterType::kAcl, 1000);
  ruleset::TraceGenerator tg(rules, {.headers = 1000, .seed = 11});
  std::vector<net::FiveTuple> trace;
  for (const net::TraceEntry& e : tg.generate()) trace.push_back(e.header);
  const auto probe_set = std::span<const net::FiveTuple>(trace).first(128);
  std::vector<sdn::Message> install;
  for (const ruleset::Rule& r : rules) {
    install.emplace_back(
        sdn::FlowMod::add(r, sdn::ActionSpec::decode(r.action.token)));
  }

  struct Case {
    core::IpAlgorithm alg;
    std::optional<core::IpAlgorithm> switch_to;
  };
  for (const Case& c : {Case{core::IpAlgorithm::kMbt, std::nullopt},
                        Case{core::IpAlgorithm::kBst, std::nullopt},
                        Case{core::IpAlgorithm::kRvh, std::nullopt},
                        Case{core::IpAlgorithm::kMbt,
                             core::IpAlgorithm::kBst}}) {
    SCOPED_TRACE(std::string(core::to_string(c.alg)) +
                 (c.switch_to ? std::string(" -> ") +
                                    core::to_string(*c.switch_to)
                              : std::string()));
    core::ClassifierConfig cfg =
        core::ClassifierConfig::for_scale(rules.size() + 512);
    cfg.combine_mode = core::CombineMode::kCrossProduct;
    cfg.ip_algorithm = c.alg;
    std::vector<sdn::Message> msgs = install;
    if (c.switch_to) msgs.emplace_back(sdn::ConfigMod{*c.switch_to});

    // One replica takes the install by replay; the levelling batch then
    // brings the other up by copying it.
    RuleProgramPublisher programs(cfg);
    programs.apply_batch(msgs);
    const ReplicaView replayed =
        view_of(programs.acquire()->classifier(), trace);
    EXPECT_EQ(recorded_updates(*programs.acquire()),
              RuleProgram::kMaxRecordedUpdates);
    EXPECT_EQ(programs.stats().standby_copies, 0u);
    programs.apply_batch({});
    EXPECT_EQ(programs.stats().standby_copies, 1u);
    EXPECT_EQ(programs.version(), msgs.size());
    EXPECT_TRUE(view_of(programs.acquire()->classifier(), trace) == replayed);
    EXPECT_EQ(recorded_updates(*programs.acquire()),
              RuleProgram::kMaxRecordedUpdates);

    // A device replaying the same messages is the reference from here.
    core::ConfigurableClassifier ref(cfg);
    for (const sdn::Message& m : msgs) sdn::apply_message(ref, m);
    ASSERT_TRUE(view_of(ref, trace) == replayed);

    // The two replicas now take turns at each update: every step's
    // charge and verdicts must be the reference's.
    Rng rng(0x5EED + static_cast<u64>(c.alg));
    u64 failed = 0;
    for (usize step = 0; step < 256; ++step) {
      const sdn::Message m =
          aimed_update(step, trace[rng.below(trace.size())],
                       ref.installed_rules(), rng);
      std::optional<hw::UpdateStats> want;
      try {
        want = sdn::apply_message(ref, m);
      } catch (const Error&) {
      }
      if (!want) {  // protocol labels run out, or a match part repeats
        EXPECT_THROW(programs.apply(m), Error);
        ++failed;
        continue;
      }
      ASSERT_TRUE(programs.apply(m) == *want) << "step " << step;
      const std::shared_ptr<const RuleProgram> snap = programs.acquire();
      ASSERT_TRUE(view_of(snap->classifier(), probe_set, false) ==
                  view_of(ref, probe_set, false))
          << "step " << step;
      ASSERT_EQ(recorded_updates(*snap), RuleProgram::kMaxRecordedUpdates)
          << "step " << step;
    }
    // Steady churn's one-entry catch-ups replay; each failed apply
    // restores its standby by a copy.
    EXPECT_EQ(programs.stats().standby_copies, 1 + failed);
    EXPECT_TRUE(view_of(programs.acquire()->classifier(), trace) ==
                view_of(ref, trace));
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

  // Single-threaded reference: the snapshot judged by the oracle.
  const OracleCheck want =
      SnapshotOracle(rules).check(programs.acquire()->classifier(), trace);
  ASSERT_TRUE(want.ok()) << want.first_mismatch;

  TrafficPool pool = TrafficPool::from_trace(trace, /*materialize=*/false);
  Engine engine({.workers = 3, .batch_size = 32, .flow_cache_depth = 1024},
                programs);
  const EngineReport rep = engine.run(pool);

  EXPECT_EQ(rep.packets(), trace.size());
  EXPECT_EQ(rep.matched(), want.oracle_matched);
  EXPECT_TRUE(merge_reports(0, rep.workers).version_monotonic);
  // Work was actually spread over the workers: each drains its own
  // steered slice of the 2000 packets, however late its thread starts.
  ASSERT_EQ(rep.workers.size(), 3u);
  for (const auto& w : rep.workers) {
    EXPECT_GT(w.counters[Counter::packets], 0u) << "worker " << w.worker;
    EXPECT_EQ(w.counters[Counter::parse_errors], 0u);
  }
  // Latency percentiles come out ordered.
  const auto lat = merge_reports(0, rep.workers).latency;
  EXPECT_LE(lat.percentile(50), lat.percentile(99));
  EXPECT_GE(lat.max(), lat.min());
}

TEST(Engine, RejectsZeroGeometry) {
  RuleProgramPublisher programs(small_config());
  EXPECT_THROW(Engine({.workers = 0}, programs), ConfigError);
  EXPECT_THROW(Engine({.batch_size = 0}, programs), ConfigError);
}

TEST(Engine, OneWorkerDrainsTheCallersPoolInPlace) {
  RuleProgramPublisher programs(small_config());
  programs.apply(add_msg(3));
  TrafficPool pool;
  for (u32 i = 0; i < 100; ++i) pool.add(probe_tuple(i % 5 + 1));

  Engine engine({.workers = 1, .batch_size = 16}, programs);
  const EngineReport rep = engine.run(pool);
  // The single shard claimed the caller's entries, not a copy's.
  EXPECT_EQ(pool.claimed(), pool.size());
  EXPECT_EQ(rep.packets(), 100u);
  EXPECT_EQ(rep.counters[EngineCounter::offered_packets], 100u);
}

TEST(Engine, FiniteRunLedgerCountsEveryPacketOnce) {
  RuleProgramPublisher programs(small_config());
  programs.apply(add_msg(3));
  TrafficPool pool;
  for (u32 i = 0; i < 600; ++i) pool.add(probe_tuple(i % 40 + 1));

  Engine engine({.workers = 3, .batch_size = 16}, programs);
  const EngineReport rep = engine.run(pool);
  ASSERT_TRUE(rep.conservation_checked);
  EXPECT_TRUE(rep.conserved());
  EXPECT_EQ(rep.counters[EngineCounter::offered_packets], pool.size());
  EXPECT_EQ(rep.counters[EngineCounter::delivered_packets], pool.size());
  EXPECT_EQ(rep.counters[EngineCounter::shed_packets], 0u);
  EXPECT_EQ(rep.counters[EngineCounter::lost_packets], 0u);
}

TEST(FlowCacheElement, ServesRepeatsAndDropsTheLineOfADeletedRule) {
  RuleProgramPublisher programs(exact_config());
  programs.apply(add_msg(5));
  Chain c(&programs, 256);

  c.push({probe_tuple(5)});  // miss -> full lookup -> fill
  c.push({probe_tuple(5)});  // repeat flow: served by the cache
  EXPECT_EQ(c.sink.matched(), 2u);
  EXPECT_EQ(c.cache->stats().hits, 1u);

  // Deleting the cached verdict's rule bumps the version; the stale
  // verdict must not outlive it.
  sdn::FlowMod del;
  del.command = sdn::FlowMod::Command::kDelete;
  del.cookie = RuleId{5};
  programs.apply(del);

  const net::PacketBatch& b = c.push({probe_tuple(5)});
  EXPECT_EQ(c.cache->stats().invalidations, 0u);      // no full flush...
  EXPECT_EQ(c.cache->stats().lines_invalidated, 1u);  // ...the line dropped
  EXPECT_EQ(c.cache->stats().hits, 1u);  // not served from the stale line
  EXPECT_EQ(c.sink.matched(), 2u);       // rule is gone: miss
  EXPECT_EQ(b.rule_version, 2u);
}

TEST(FlowCacheElement, HigherPriorityAddEvictsCachedVerdict) {
  RuleProgramPublisher programs;
  programs.apply(port80_add(1, 1, false, sdn::ActionSpec::output(4)));
  Chain c(&programs);

  const net::FiveTuple h{ipv4(1, 2, 3, 4), ipv4(5, 6, 7, 8), 1000, 80,
                         net::kProtoTcp};
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(c.push({h}).meta(0).rule, RuleId{1});
  }
  EXPECT_EQ(c.cache->stats().hits, 1u);  // the second one was cached

  // A higher-priority drop rule arrives; the cached "output 4" verdict
  // must not survive.
  programs.apply(port80_add(0, 0, true, sdn::ActionSpec::drop()));
  const net::PacketBatch& b = c.push({h});
  EXPECT_FALSE(b.meta(0).from_cache);
  ASSERT_TRUE(b.meta(0).matched);
  EXPECT_EQ(b.meta(0).rule, RuleId{0});  // the deny rule, not the stale line
  EXPECT_EQ(sdn::ActionSpec::decode(b.meta(0).action_token).kind,
            sdn::ActionSpec::Kind::kDrop);
  EXPECT_EQ(c.sink.dropped(), 1u);
}

TEST(FlowCacheElement, PublishAfterTheCacheLeavesTheBatchAtItsVersion) {
  RuleProgramPublisher programs(exact_config());
  programs.apply(add_msg(5));
  Chain c(&programs, 256);
  c.push({probe_tuple(5)});  // flow 5's verdict cached at v1

  // Rule 6 lands after the cache served flow 5 and before the classifier
  // looks flow 6 up: the whole batch stays at the cache's v1, so flow 6
  // misses and its miss is cached at v1.
  net::PacketBatch& b = c.b;
  b.clear();
  b.push(probe_tuple(5));
  b.push(probe_tuple(6));
  c.parser.push_batch(b);
  c.cache->push_batch(b);
  programs.apply(add_msg(6));
  c.classifier.push_batch(b);
  c.sink.push_batch(b);
  EXPECT_EQ(b.rule_version, 1u);
  EXPECT_TRUE(b.meta(0).from_cache);
  EXPECT_EQ(b.meta(0).rule, RuleId{5});
  EXPECT_FALSE(b.meta(1).from_cache);
  EXPECT_FALSE(b.meta(1).matched);

  // The next batch sees v2: rule 6's add drops the cached miss, so flow
  // 6 now matches it; flow 5's line survives.
  const net::PacketBatch& next = c.push({probe_tuple(5), probe_tuple(6)});
  EXPECT_EQ(next.rule_version, 2u);
  EXPECT_TRUE(next.meta(0).from_cache);
  EXPECT_FALSE(next.meta(1).from_cache);
  ASSERT_TRUE(next.meta(1).matched);
  EXPECT_EQ(next.meta(1).rule, RuleId{6});
  EXPECT_EQ(c.cache->stats().invalidations, 0u);
  EXPECT_EQ(c.cache->stats().lines_invalidated, 1u);
  EXPECT_EQ(c.classifier.lookups(), 3u);
}

TEST(FlowCacheElement, LineAnUpdateCannotChangeIsStillServed) {
  RuleProgramPublisher programs(exact_config());
  programs.apply_batch(std::vector<sdn::Message>{add_msg(5), add_msg(6)});
  Chain c(&programs);
  c.push({probe_tuple(5), probe_tuple(6)});  // fill both

  // Neither update can change flow 5's verdict: rule 7 does not match
  // it, and rule 6 is not its verdict.
  programs.apply(add_msg(7));
  programs.apply(delete_msg(6));
  const net::PacketBatch& b = c.push({probe_tuple(5), probe_tuple(6)});
  EXPECT_TRUE(b.meta(0).from_cache);
  EXPECT_EQ(b.meta(0).rule, RuleId{5});
  EXPECT_FALSE(b.meta(1).from_cache);  // its rule is gone
  EXPECT_FALSE(b.meta(1).matched);
  EXPECT_EQ(c.cache->stats().invalidations, 0u);
  EXPECT_EQ(c.cache->stats().lines_invalidated, 1u);
}

TEST(FlowCacheElement, EqualPriorityAddFollowsTheLowerRuleId) {
  RuleProgramPublisher programs(exact_config());
  programs.apply(add_msg(100));  // priority 100
  Chain c(&programs);
  c.push({probe_tuple(100)});

  // Same priority as the cached verdict, higher id: rule 100 still wins.
  ruleset::Rule higher = probe_rule(100);
  higher.id = RuleId{150};
  higher.proto = ruleset::ProtoMatch::exact(net::kProtoTcp);
  programs.apply(sdn::FlowMod::add(higher, sdn::ActionSpec::output(2)));
  const net::PacketBatch& b1 = c.push({probe_tuple(100)});
  EXPECT_TRUE(b1.meta(0).from_cache);
  EXPECT_EQ(b1.meta(0).rule, RuleId{100});

  // Same priority, lower id: the new rule wins, so the line goes.
  ruleset::Rule lower = probe_rule(100);
  lower.id = RuleId{50};
  lower.dst_ip = ruleset::IpPrefix::make(probe_tuple(100).dst_ip, 32);
  programs.apply(sdn::FlowMod::add(lower, sdn::ActionSpec::output(3)));
  const net::PacketBatch& b2 = c.push({probe_tuple(100)});
  EXPECT_FALSE(b2.meta(0).from_cache);
  EXPECT_EQ(b2.meta(0).rule, RuleId{50});
  EXPECT_EQ(c.cache->stats().lines_invalidated, 1u);
}

TEST(FlowCacheElement, MatchingAddDropsACachedMiss) {
  RuleProgramPublisher programs(exact_config());
  programs.apply(add_msg(5));
  Chain c(&programs);
  c.push({probe_tuple(9), probe_tuple(11)});  // two cached misses

  programs.apply(add_msg(9));
  const net::PacketBatch& b = c.push({probe_tuple(9), probe_tuple(11)});
  EXPECT_FALSE(b.meta(0).from_cache);  // rule 9 matches: miss dropped
  EXPECT_TRUE(b.meta(0).matched);
  EXPECT_EQ(b.meta(0).rule, RuleId{9});
  EXPECT_TRUE(b.meta(1).from_cache);  // rule 9 does not match flow 11
  EXPECT_FALSE(b.meta(1).matched);
}

TEST(FlowCacheElement, ModifyServesTheNewAction) {
  RuleProgramPublisher programs(exact_config());
  programs.apply(add_msg(5));  // output(1)
  Chain c(&programs);
  c.push({probe_tuple(5)});

  sdn::FlowMod mod;
  mod.command = sdn::FlowMod::Command::kModify;
  mod.cookie = RuleId{5};
  mod.action = sdn::ActionSpec::output(7);
  programs.apply(mod);
  for (const bool cached : {false, true}) {
    const net::PacketBatch& b = c.push({probe_tuple(5)});
    EXPECT_EQ(b.meta(0).from_cache, cached);
    EXPECT_EQ(b.meta(0).action_token, sdn::ActionSpec::output(7).encode());
  }
  EXPECT_EQ(c.cache->stats().invalidations, 0u);
}

TEST(FlowCacheElement, ConfigModFlushesWhole) {
  RuleProgramPublisher programs(exact_config());
  programs.apply(add_msg(5));
  Chain c(&programs);
  c.push({probe_tuple(5)});

  programs.apply(sdn::ConfigMod{core::IpAlgorithm::kMbt});
  const net::PacketBatch& b = c.push({probe_tuple(5)});
  EXPECT_FALSE(b.meta(0).from_cache);
  EXPECT_EQ(b.meta(0).rule, RuleId{5});
  EXPECT_EQ(c.cache->stats().invalidations, 1u);
}

TEST(FlowCacheElement, GapBeyondTheRecordedUpdatesFlushesWhole) {
  RuleProgramPublisher programs(exact_config());
  programs.apply(add_msg(5));
  Chain c(&programs);
  c.push({probe_tuple(5)});

  // A few publishes between two batches are within the recorded
  // updates: the line survives.
  for (u32 id = 20; id < 23; ++id) programs.apply(add_msg(id));
  EXPECT_TRUE(c.push({probe_tuple(5)}).meta(0).from_cache);
  EXPECT_EQ(c.cache->stats().invalidations, 0u);

  // One more publish than a snapshot records leaves a gap...
  for (u32 id = 100; id < 100 + RuleProgram::kMaxRecordedUpdates + 1; ++id) {
    programs.apply(add_msg(id));
  }
  EXPECT_FALSE(c.push({probe_tuple(5)}).meta(0).from_cache);
  EXPECT_EQ(c.cache->stats().invalidations, 1u);

  // ...and so does one batch of that many.
  std::vector<sdn::Message> many;
  for (u32 id = 200; id < 200 + RuleProgram::kMaxRecordedUpdates + 1; ++id) {
    many.push_back(add_msg(id));
  }
  programs.apply_batch(many);
  EXPECT_FALSE(c.push({probe_tuple(5)}).meta(0).from_cache);
  EXPECT_EQ(c.cache->stats().invalidations, 2u);
  EXPECT_EQ(c.cache->stats().lines_invalidated, 0u);
}

TEST(FlowCacheElement, RestoredStandbyKeepsThePublishedRecord) {
  RuleProgramPublisher programs(exact_config());
  programs.apply(add_msg(5));
  Chain behind(&programs);
  behind.push({probe_tuple(5), probe_tuple(7)});  // cached at v1 (7: a miss)
  programs.apply(add_msg(7));
  Chain at(&programs);
  at.push({probe_tuple(5)});  // cached at v2

  // A failed publish restores the standby as a copy of the published
  // replica at v2, its record of updates included.
  programs.set_fault_hook([] { throw std::runtime_error("injected"); });
  EXPECT_THROW(programs.apply(add_msg(6)), std::runtime_error);
  programs.set_fault_hook(nullptr);
  EXPECT_EQ(programs.stats().standby_copies, 1u);
  EXPECT_TRUE(at.push({probe_tuple(5)}).meta(0).from_cache);  // nothing new

  // The restored replica publishes v3 with the v2->v3 update: a worker
  // at v2 drops only what it changes...
  programs.apply(add_msg(6));
  const net::PacketBatch& b_at = at.push({probe_tuple(5), probe_tuple(6)});
  EXPECT_TRUE(b_at.meta(0).from_cache);
  EXPECT_EQ(b_at.meta(0).rule, RuleId{5});
  EXPECT_EQ(b_at.meta(1).rule, RuleId{6});
  EXPECT_EQ(at.cache->stats().invalidations, 0u);

  // ...and so does a worker still at v1: the record still holds v1->v2,
  // whose add of rule 7 drops flow 7's cached miss and nothing else.
  const net::PacketBatch& b_behind =
      behind.push({probe_tuple(5), probe_tuple(7)});
  EXPECT_TRUE(b_behind.meta(0).from_cache);
  EXPECT_EQ(b_behind.meta(0).rule, RuleId{5});
  EXPECT_FALSE(b_behind.meta(1).from_cache);
  EXPECT_EQ(b_behind.meta(1).rule, RuleId{7});
  EXPECT_EQ(behind.cache->stats().invalidations, 0u);
  EXPECT_EQ(behind.cache->stats().lines_invalidated, 1u);
}

TEST(FlowCacheElement, FirstLabelCombineFlushesWhole) {
  // A first-label verdict can change under an update that neither
  // matches its flow nor names its rule, so only a flush is safe.
  RuleProgramPublisher programs(small_config());
  programs.apply(add_msg(5));
  Chain c(&programs);
  c.push({probe_tuple(5)});

  programs.apply(add_msg(6));
  EXPECT_FALSE(c.push({probe_tuple(5)}).meta(0).from_cache);
  EXPECT_EQ(c.cache->stats().invalidations, 1u);
}

TEST(FlowCacheElement, NextBatchDropsTheLinesOfAPublishAfterTheCache) {
  RuleProgramPublisher programs(exact_config());
  programs.apply_batch(std::vector<sdn::Message>{add_msg(5), add_msg(6)});
  Chain c(&programs, 256);
  c.push({probe_tuple(5), probe_tuple(6)});  // fills both at v2

  // Rule 6 is deleted after the cache served flows 5 and 6 from v2: the
  // batch, flow 7's lookup included, stays at v2.
  net::PacketBatch& b = c.b;
  b.clear();
  b.push(probe_tuple(5));
  b.push(probe_tuple(6));
  b.push(probe_tuple(7));
  c.parser.push_batch(b);
  c.cache->push_batch(b);
  programs.apply(delete_msg(6));
  c.classifier.push_batch(b);
  c.sink.push_batch(b);
  EXPECT_EQ(b.rule_version, 2u);
  EXPECT_TRUE(b.meta(1).from_cache);
  EXPECT_EQ(b.meta(1).rule, RuleId{6});

  // The next batch sees v3: the delete drops flow 6's line and keeps
  // flow 5's.
  const net::PacketBatch& next = c.push({probe_tuple(5), probe_tuple(6)});
  EXPECT_EQ(next.rule_version, 3u);
  EXPECT_TRUE(next.meta(0).from_cache);
  EXPECT_EQ(next.meta(0).rule, RuleId{5});
  EXPECT_FALSE(next.meta(1).from_cache);
  EXPECT_FALSE(next.meta(1).matched);
  EXPECT_EQ(c.cache->stats().invalidations, 0u);
  EXPECT_EQ(c.cache->stats().lines_invalidated, 1u);
}

TEST(ActionSink, ExplicitDropActionCountsMatchedAndDropped) {
  RuleProgramPublisher programs;
  programs.apply(port80_add(1, 1, false, sdn::ActionSpec::drop()));
  Chain c(&programs, /*cache_depth=*/0);

  c.push({net::FiveTuple{ipv4(1, 2, 3, 4), ipv4(5, 6, 7, 8), 1000, 80,
                         net::kProtoTcp}});
  EXPECT_EQ(c.sink.matched(), 1u);  // matched...
  EXPECT_EQ(c.sink.dropped(), 1u);  // ...and dropped by its action
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
