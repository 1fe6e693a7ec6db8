// Seeded randomized differential harness for the lookup path.
//
// Each iteration draws one configuration from the cross of
//   {acl,fw,ipc} RulesetProfile draws x synthesized traces
//   x IP lookup backends {mbt, bst, rvh}
//   x batch sizes {1, 32, 256}
// and classify()s the trace batch by batch. Every packet's verdict
// is judged by dataplane::SnapshotOracle: rule id, priority and action
// token must equal baseline::LinearSearch's over the installed rules
// (semantic ground truth).
//
// Half the iterations interleave random update-path mutations
// (remove / re-add / modify) at batch boundaries, then keep classifying:
// a label list, prefix table or Rule Filter entry the update path left
// stale shows up as a mismatch against the freshly-rebuilt oracle.
//
// Determinism: the default run uses a fixed seed (what CI's main job
// runs); PCLASS_FUZZ_SEED / PCLASS_FUZZ_ITERS override it for the
// random-seed smoke (CI echoes the seed into the log so any failure is
// reproducible by exporting the same value).
//
// The second half of the file is the *sharded-engine* differential
// fuzzer: real Engines (1-4 workers, one steered shard each) with
// verdict capture on, while a concurrent
// mutator streams rule updates through the RuleProgramPublisher
// mid-classification. Every captured verdict is judged by a
// dataplane::VersionedOracle at exactly the rule-program version the
// verdict was stamped with, plus the steering invariant
// (each verdict's tuple hashes to the shard that logged it).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <cstdlib>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/random.hpp"
#include "core/classifier.hpp"
#include "dataplane/engine.hpp"
#include "dataplane/flow_steer.hpp"
#include "sdn/flow_mod.hpp"
#include "workload/profile.hpp"
#include "workload/ruleset_synth.hpp"
#include "workload/trace_synth.hpp"

using namespace pclass;

namespace {

constexpr u64 kDefaultSeed = 0xC1A551F1;
constexpr usize kDefaultIters = 200;

u64 env_u64(const char* name, u64 fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 0);
}

/// One drawn configuration, loggable for reproduction.
struct FuzzConfig {
  std::string family;
  usize rules_n = 0;
  usize packets = 0;
  bool zipf_trace = false;
  core::IpAlgorithm alg = core::IpAlgorithm::kMbt;
  usize batch = 0;
  bool updates = false;
  u64 seed = 0;

  [[nodiscard]] std::string describe() const {
    return "family=" + family + " rules=" + std::to_string(rules_n) +
           " packets=" + std::to_string(packets) +
           (zipf_trace ? " trace=zipf" : " trace=standard") +
           " alg=" + std::string(to_string(alg)) +
           " batch=" + std::to_string(batch) +
           (updates ? " updates=yes" : " updates=no") +
           " seed=" + std::to_string(seed);
  }
};

FuzzConfig draw_config(Rng& rng, u64 seed) {
  FuzzConfig c;
  c.seed = seed;
  c.family = std::array{"acl", "fw", "ipc"}[rng.below(3)];
  c.rules_n = 40 + static_cast<usize>(rng.below(90));
  c.packets = 192 + static_cast<usize>(rng.below(192));
  c.zipf_trace = rng.below(2) == 0;
  c.alg = std::array{core::IpAlgorithm::kMbt, core::IpAlgorithm::kBst,
                     core::IpAlgorithm::kRvh}[rng.below(3)];
  c.batch = std::array<usize, 3>{1, 32, 256}[rng.below(3)];
  c.updates = rng.below(2) == 0;
  return c;
}

/// Apply 1..4 random update-path mutations: remove an installed rule,
/// re-add a previously removed one, or rewrite an action in place.
void mutate(core::ConfigurableClassifier& clf, Rng& rng,
            std::vector<ruleset::Rule>& removed) {
  const usize kMutations = 1 + rng.below(4);
  for (usize m = 0; m < kMutations; ++m) {
    const auto installed = clf.installed_rules();
    const u64 kind = rng.below(3);
    if (kind == 0 && installed.size() > 8) {
      const ruleset::Rule victim = installed[rng.below(installed.size())];
      clf.remove_rule(victim.id);
      removed.push_back(victim);
    } else if (kind == 1 && !removed.empty()) {
      const usize k = rng.below(removed.size());
      clf.add_rule(removed[k]);
      removed.erase(removed.begin() + static_cast<std::ptrdiff_t>(k));
    } else if (!installed.empty()) {
      const ruleset::Rule& r = installed[rng.below(installed.size())];
      clf.modify_rule(r.id,
                      ruleset::Action{static_cast<u32>(rng.below(0xFFFF))});
    }
  }
}

/// Run one drawn configuration end to end; every EXPECT carries the
/// config description so a failure is reproducible from the log alone.
void run_config(const FuzzConfig& c) {
  Rng rng(c.seed ^ 0x5EED5EEDULL);

  workload::RulesetProfile rp =
      workload::RulesetProfile::by_family(c.family, c.rules_n, c.seed);
  ruleset::RuleSet rules = workload::synthesize(rp);
  workload::TraceProfile tp =
      c.zipf_trace ? workload::TraceProfile::zipf_heavy(c.packets, c.seed ^ 1)
                   : workload::TraceProfile::standard(c.packets, c.seed ^ 1);
  net::Trace trace;
  {
    workload::TraceSynthesizer ts(rules, tp);
    trace = ts.generate();
  }

  core::ClassifierConfig cfg =
      core::ClassifierConfig::for_scale(rules.size() + 64);
  cfg.combine_mode = core::CombineMode::kCrossProduct;  // exact => oracle
  cfg.ip_algorithm = c.alg;
  core::ConfigurableClassifier clf(cfg);
  clf.add_rules(rules);

  dataplane::SnapshotOracle oracle(dataplane::installed_ruleset(clf));
  dataplane::OracleCheck check;
  std::vector<ruleset::Rule> removed;

  usize off = 0;
  while (off < trace.size()) {
    const usize len = std::min(c.batch, trace.size() - off);
    for (usize k = off; k < off + len; ++k) {
      const net::FiveTuple& h = trace[k].header;
      ASSERT_TRUE(oracle.judge(h, clf.classify(h).match, check))
          << c.describe() << " pkt " << k << ": " << check.first_mismatch;
    }
    off += len;

    // Update fuzz: mutate at some batch boundaries, then keep going
    // against the rebuilt oracle.
    if (c.updates && off < trace.size() && rng.below(4) == 0) {
      mutate(clf, rng, removed);
      oracle = dataplane::SnapshotOracle(dataplane::installed_ruleset(clf));
    }
  }
  ASSERT_EQ(check.checked, trace.size()) << c.describe();
}

}  // namespace

TEST(DifferentialFuzz, RandomConfigsAgreeWithLinearSearch) {
  const u64 seed = env_u64("PCLASS_FUZZ_SEED", kDefaultSeed);
  const usize iters = static_cast<usize>(
      env_u64("PCLASS_FUZZ_ITERS", kDefaultIters));
  std::cerr << "[fuzz] seed=" << seed << " iters=" << iters
            << " (override via PCLASS_FUZZ_SEED / PCLASS_FUZZ_ITERS)\n";

  Rng meta(seed);
  for (usize i = 0; i < iters; ++i) {
    const u64 cseed = meta.next();
    Rng rng(cseed);
    const FuzzConfig c = draw_config(rng, cseed);
    SCOPED_TRACE("iter " + std::to_string(i) + ": " + c.describe());
    run_config(c);
    if (::testing::Test::HasFatalFailure()) {
      std::cerr << "[fuzz] FAILED at iter " << i << ": " << c.describe()
                << "\n";
      return;
    }
  }
}

// ===========================================================================
// Sharded-engine differential fuzz: real Engines, real worker threads,
// live publisher mutations. Where the harness above exercises one
// classifier on one thread, this one exercises the full sharded runtime
// — steering, per-shard replicas and RCU snapshot acquisition —
// against per-version LinearSearch oracles.
// ===========================================================================

namespace {

/// One drawn sharded-engine configuration, loggable for reproduction.
struct ShardFuzzConfig {
  std::string family;
  usize rules_n = 0;
  usize packets = 0;
  bool zipf_trace = false;
  core::IpAlgorithm alg = core::IpAlgorithm::kMbt;
  usize workers = 1;  ///< worker threads, one steered shard each
  usize batch = 32;
  bool mutations = false;   ///< concurrent publisher mutator
  u32 cache_depth = 0;
  u64 seed = 0;

  [[nodiscard]] std::string describe() const {
    return "family=" + family + " rules=" + std::to_string(rules_n) +
           " packets=" + std::to_string(packets) +
           (zipf_trace ? " trace=zipf" : " trace=standard") +
           " alg=" + std::string(to_string(alg)) +
           " workers=" + std::to_string(workers) +
           " batch=" + std::to_string(batch) +
           (mutations ? " mutations=yes" : " mutations=no") +
           " cache=" + std::to_string(cache_depth) +
           " seed=" + std::to_string(seed);
  }
};

ShardFuzzConfig draw_shard_config(Rng& rng, u64 seed) {
  ShardFuzzConfig c;
  c.seed = seed;
  c.family = std::array{"acl", "fw", "ipc"}[rng.below(3)];
  c.rules_n = 40 + static_cast<usize>(rng.below(81));
  c.packets = 256 + static_cast<usize>(rng.below(513));
  c.zipf_trace = rng.below(2) == 0;
  c.alg = std::array{core::IpAlgorithm::kMbt, core::IpAlgorithm::kBst,
                     core::IpAlgorithm::kRvh}[rng.below(3)];
  c.workers = 1 + static_cast<usize>(rng.below(4));  // 1..4
  c.batch = std::array<usize, 3>{8, 32, 64}[rng.below(3)];
  c.mutations = rng.below(2) == 0;
  c.cache_depth = rng.below(2) == 0 ? 0 : 64;
  return c;
}

/// The update stream of one run: aimed adds, deletes, re-adds and
/// modifies drawn against the publisher's installed rules.
class UpdateStream {
 public:
  UpdateStream(u64 seed, std::vector<net::FiveTuple> flows)
      : rng_(seed), flows_(std::move(flows)) {}

  /// Apply one drawn update (if one applies) and record its version.
  void step(dataplane::RuleProgramPublisher& pub,
            dataplane::VersionedOracle& oracles) {
    const std::optional<sdn::FlowMod> fm =
        draw(pub.acquire()->classifier().installed_rules());
    if (!fm) return;
    try {
      pub.apply(*fm);
    } catch (const Error&) {
      ++failed_;  // e.g. protocol labels run out: the publish rolls back
      return;
    }
    if (fm->command == sdn::FlowMod::Command::kDelete) {
      removed_.push_back(*deleted_);
    } else if (readd_) {
      ++readds_;
    }
    oracles.record(pub);
  }

  [[nodiscard]] u64 failed() const { return failed_; }
  /// Re-adds of deleted rules that were applied.
  [[nodiscard]] u64 readds() const { return readds_; }

 private:
  /// Two draws in five are aimed adds; delete, re-add and modify share
  /// the rest equally (a delete from 8 or fewer rules, or a re-add with
  /// none deleted, becomes a modify).
  std::optional<sdn::FlowMod> draw(
      const std::vector<ruleset::Rule>& installed) {
    const u64 kind = rng_.below(5);
    readd_ = false;
    if (kind <= 1) return aimed_add(installed);
    if (kind == 2 && installed.size() > 8) {
      const ruleset::Rule& victim = installed[rng_.below(installed.size())];
      sdn::FlowMod fm;
      fm.command = sdn::FlowMod::Command::kDelete;
      fm.cookie = victim.id;
      deleted_ = victim;
      return fm;
    }
    if (kind == 3 && !removed_.empty()) {
      const usize k = rng_.below(removed_.size());
      const ruleset::Rule r = removed_[k];
      removed_.erase(removed_.begin() + static_cast<std::ptrdiff_t>(k));
      for (const ruleset::Rule& o : installed) {
        if (o.same_match(r)) return std::nullopt;
      }
      readd_ = true;
      return sdn::FlowMod::add(r, sdn::ActionSpec::decode(r.action.token));
    }
    if (installed.empty()) return std::nullopt;
    sdn::FlowMod fm;
    fm.command = sdn::FlowMod::Command::kModify;
    fm.cookie = installed[rng_.below(installed.size())].id;
    fm.action = sdn::ActionSpec::output(static_cast<u16>(1 + rng_.below(1000)));
    return fm;
  }

  /// A new rule matching one of the flows, with random wildcarding. Its
  /// id is drawn at random, so a tie on a copied priority goes either way.
  std::optional<sdn::FlowMod> aimed_add(
      const std::vector<ruleset::Rule>& installed) {
    const net::FiveTuple& t = flows_[rng_.below(flows_.size())];
    constexpr std::array<u8, 5> kLens = {0, 8, 16, 24, 32};
    ruleset::Rule r;
    r.src_ip = ruleset::IpPrefix::make(t.src_ip, kLens[rng_.below(5)]);
    r.dst_ip = ruleset::IpPrefix::make(t.dst_ip, kLens[rng_.below(5)]);
    if (rng_.below(2) == 0) r.src_port = ruleset::PortRange::exact(t.src_port);
    if (rng_.below(2) == 0) r.dst_port = ruleset::PortRange::exact(t.dst_port);
    if (rng_.below(2) == 0) r.proto = ruleset::ProtoMatch::exact(t.protocol);
    Priority top = 0;
    for (const ruleset::Rule& o : installed) {
      if (o.same_match(r)) return std::nullopt;
      top = std::max(top, o.priority);
    }
    r.priority = !installed.empty() && rng_.below(2) == 0
                     ? installed[rng_.below(installed.size())].priority
                     : static_cast<Priority>(rng_.below(u64{top} + 2));
    for (;;) {
      r.id = RuleId{static_cast<u32>(30'000 + rng_.below(30'000))};
      const bool taken =
          std::any_of(installed.begin(), installed.end(),
                      [&](const ruleset::Rule& o) { return o.id == r.id; }) ||
          std::any_of(removed_.begin(), removed_.end(),
                      [&](const ruleset::Rule& o) { return o.id == r.id; });
      if (!taken) break;
    }
    return sdn::FlowMod::add(
        r, sdn::ActionSpec::output(static_cast<u16>(1 + rng_.below(1000))));
  }

  Rng rng_;
  std::vector<net::FiveTuple> flows_;
  std::vector<ruleset::Rule> removed_;
  std::optional<ruleset::Rule> deleted_;
  bool readd_ = false;  ///< the last draw is a re-add
  u64 failed_ = 0;
  u64 readds_ = 0;
};

/// The distinct tuples of \p trace: the flows the adds aim at.
std::vector<net::FiveTuple> distinct_flows(const net::Trace& trace) {
  std::set<net::FiveTuple> distinct;
  for (const auto& e : trace) distinct.insert(e.header);
  return {distinct.begin(), distinct.end()};
}

/// Drive one drawn configuration through a real Engine and check every
/// captured verdict against the oracle at its stamped version.
void run_shard_config(const ShardFuzzConfig& c) {
  workload::RulesetProfile rp =
      workload::RulesetProfile::by_family(c.family, c.rules_n, c.seed);
  ruleset::RuleSet rules = workload::synthesize(rp);
  workload::TraceProfile tp =
      c.zipf_trace ? workload::TraceProfile::zipf_heavy(c.packets, c.seed ^ 1)
                   : workload::TraceProfile::standard(c.packets, c.seed ^ 1);
  net::Trace trace;
  {
    workload::TraceSynthesizer ts(rules, tp);
    trace = ts.generate();
  }
  dataplane::TrafficPool pool =
      dataplane::TrafficPool::from_trace(trace, /*materialize=*/false);

  core::ClassifierConfig cfg =
      core::ClassifierConfig::for_scale(rules.size() + 64);
  cfg.combine_mode = core::CombineMode::kCrossProduct;  // exact => oracle
  cfg.ip_algorithm = c.alg;

  // One publisher, steered slices, optional live mutator racing the
  // workers.
  dataplane::RuleProgramPublisher pub(cfg);
  pub.install_ruleset(rules);
  dataplane::VersionedOracle oracles;
  oracles.record(pub);

  // Workers drain a few hundred packets in tens of microseconds — far
  // faster than a wall-clock-paced mutator (each publish pays an RCU
  // grace period) could interleave. So the two sides gate on each
  // other's *progress*: the per-batch hook bumps `batches_seen` and
  // waits for the mutator to reach that batch's share of the mutation
  // budget, while mutation m waits for the m-th slice of the expected
  // batch count before publishing. The wait conditions are
  // complementary (a worker blocks only past B(d+1)/n batches, the
  // mutator only before B(d+1)/(n+1) — disjoint for every d), so the
  // lockstep cannot deadlock, and every run interleaves publishes
  // densely through the packet stream: workers re-acquire the snapshot
  // per batch, so successive batches observe successive versions.
  // `drained` / `mutations_done == n` break the coupling when either
  // side finishes early (leftover mutations publish after the run,
  // harmlessly).
  std::atomic<u64> batches_seen{0};
  std::atomic<u64> mutations_done{0};
  std::atomic<bool> drained{false};
  Rng mrng(c.seed ^ 0x0DDBA11ULL);
  const u64 n_mut =
      c.mutations ? 8 + static_cast<u64>(mrng.below(25)) : 0;  // 8..32
  const u64 expected_batches =
      static_cast<u64>((trace.size() + c.batch - 1) / c.batch);

  dataplane::EngineConfig ecfg{
      .workers = c.workers,
      .batch_size = c.batch,
      .flow_cache_depth = c.cache_depth,
      .telemetry = false,
      .capture_verdicts = true};
  if (c.mutations) {
    ecfg.worker_fault_hook = [&batches_seen, &mutations_done, n_mut,
                              expected_batches](usize) {
      const u64 b = batches_seen.fetch_add(1, std::memory_order_relaxed) + 1;
      const u64 want = std::min(n_mut, b * n_mut / expected_batches);
      while (mutations_done.load(std::memory_order_relaxed) < want) {
        std::this_thread::yield();
      }
    };
  }
  dataplane::Engine engine(ecfg, pub);

  // The mutator is the only writer; it records the installed-rule
  // snapshot after every publish, and is joined before any oracle read,
  // so the VersionedOracle needs no locking.
  std::thread mutator;
  if (c.mutations) {
    mutator = std::thread([&pub, &oracles, &batches_seen, &mutations_done,
                           &drained, n_mut, expected_batches,
                           updates = UpdateStream(mrng.next(),
                                                  distinct_flows(trace))]()
                              mutable {
      for (u64 m = 0; m < n_mut; ++m) {
        const u64 gate = (m + 1) * expected_batches / (n_mut + 1);
        while (batches_seen.load(std::memory_order_relaxed) < gate &&
               !drained.load(std::memory_order_relaxed)) {
          std::this_thread::yield();
        }
        updates.step(pub, oracles);
        mutations_done.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  const dataplane::EngineReport rep = engine.run(pool);
  drained.store(true, std::memory_order_relaxed);
  if (mutator.joinable()) mutator.join();

  ASSERT_TRUE(rep.first_error().empty())
      << c.describe() << ": " << rep.first_error();
  EXPECT_TRUE(dataplane::merge_reports(0, rep.workers).version_monotonic)
      << c.describe();
  ASSERT_EQ(rep.captured.size(), c.workers) << c.describe();
  ASSERT_EQ(rep.shards.size(), c.workers) << c.describe();

  usize total = 0;
  for (usize s = 0; s < c.workers; ++s) {
    total += rep.captured[s].size();
    EXPECT_EQ(rep.captured[s].size(), rep.shards[s].counters[telemetry::Counter::packets])
        << c.describe() << " shard " << s;
    for (usize k = 0; k < rep.captured[s].size(); ++k) {
      const dataplane::CapturedVerdict& cv = rep.captured[s][k];
      // Steering invariant: the verdict's flow hashes to the shard that
      // logged it.
      ASSERT_EQ(dataplane::shard_of(cv.tuple, c.workers), s)
          << c.describe() << " pkt " << k;
      ASSERT_TRUE(oracles.judge(cv))
          << c.describe() << " shard " << s << " pkt " << k << ": "
          << oracles.result().first_mismatch;
    }
  }
  EXPECT_EQ(total, trace.size()) << c.describe();
  EXPECT_EQ(rep.packets(), trace.size()) << c.describe();
}

}  // namespace

TEST(ShardedDifferentialFuzz, MultiWorkerEnginesAgreeWithVersionedOracles) {
  const u64 seed = env_u64("PCLASS_FUZZ_SEED", kDefaultSeed) ^ 0x5AADED;
  const usize iters =
      static_cast<usize>(env_u64("PCLASS_FUZZ_ITERS", kDefaultIters));
  std::cerr << "[shard-fuzz] seed=" << seed << " iters=" << iters
            << " (override via PCLASS_FUZZ_SEED / PCLASS_FUZZ_ITERS)\n";

  Rng meta(seed);
  for (usize i = 0; i < iters; ++i) {
    const u64 cseed = meta.next();
    Rng rng(cseed);
    const ShardFuzzConfig c = draw_shard_config(rng, cseed);
    SCOPED_TRACE("iter " + std::to_string(i) + ": " + c.describe());
    run_shard_config(c);
    if (::testing::Test::HasFatalFailure()) {
      std::cerr << "[shard-fuzz] FAILED at iter " << i << ": " << c.describe()
                << "\n";
      return;
    }
  }
}

// A focused cross-shard update storm: max shard fan-out, every worker
// thread busy, long trace so the mutator's 8..32 publishes land *during*
// classification — the geometry where a worker pinning an old snapshot
// (or stamping the wrong version on a batch) actually shows up.
TEST(ShardedDifferentialFuzz, UpdateStormAcrossShardsNeverServesStaleVerdict) {
  const u64 base = env_u64("PCLASS_FUZZ_SEED", kDefaultSeed) ^ 0x57EE1;
  Rng meta(base);
  // Both backend families under the storm: the RVH leg pins its
  // incremental bucket updates against per-version oracles on the real
  // multi-worker RCU path, not just the single-thread harness above.
  for (const core::IpAlgorithm alg :
       {core::IpAlgorithm::kMbt, core::IpAlgorithm::kRvh}) {
    ShardFuzzConfig c;
    c.seed = meta.next();
    c.family = "fw";  // wildcard-heavy: verdicts shift under mutation
    c.rules_n = 96;
    c.packets = 2048;
    c.zipf_trace = true;
    c.alg = alg;
    c.workers = 4;
    c.batch = 16;  // many snapshot acquisitions per run
    c.mutations = true;
    c.cache_depth = 0;
    SCOPED_TRACE(c.describe());
    run_shard_config(c);
  }
}

// ===========================================================================
// Flow-cache differential fuzz: per-update invalidation against the
// same per-version oracles. Seeded add/delete/modify streams run between
// the batches of a cache-on element chain (and of a multi-worker Engine
// in lockstep), over Zipf traffic whose flows repeat; the adds are aimed
// at those flows, with priorities copied from installed rules so ties
// are broken by rule id in both directions. Every verdict, cache hits
// included, must equal LinearSearch at the verdict's version, and the
// cache must serve enough hits that the check is not vacuous.
// ===========================================================================

namespace {

/// Hit ratio the cache must reach over a whole fuzz run.
constexpr double kMinCacheHitRatio = 0.5;

struct CacheFuzzConfig {
  std::string family;
  usize rules_n = 0;
  usize packets = 0;
  core::IpAlgorithm alg = core::IpAlgorithm::kMbt;
  usize batch = 16;
  u32 cache_depth = 1024;
  usize workers = 1;  ///< Engine variant only
  u64 seed = 0;

  [[nodiscard]] std::string describe() const {
    return "family=" + family + " rules=" + std::to_string(rules_n) +
           " packets=" + std::to_string(packets) +
           " alg=" + std::string(to_string(alg)) +
           " batch=" + std::to_string(batch) +
           " cache=" + std::to_string(cache_depth) +
           " workers=" + std::to_string(workers) +
           " seed=" + std::to_string(seed);
  }
};

CacheFuzzConfig draw_cache_config(Rng& rng, u64 seed, bool engine) {
  CacheFuzzConfig c;
  c.seed = seed;
  c.family = std::array{"acl", "fw", "ipc"}[rng.below(3)];
  c.rules_n = 40 + static_cast<usize>(rng.below(81));
  c.packets = 512 + static_cast<usize>(rng.below(513));
  c.alg = std::array{core::IpAlgorithm::kMbt, core::IpAlgorithm::kBst,
                     core::IpAlgorithm::kRvh}[rng.below(3)];
  c.batch = std::array<usize, 3>{8, 16, 32}[rng.below(3)];
  // 1000 and 40 lines end in a partial 64-line block of the
  // invalidation scans' skip test; 40 is nothing but that block.
  c.cache_depth = std::array<u32, 4>{40, 256, 1000, 1024}[rng.below(4)];
  if (engine) {
    c.workers = 2 + static_cast<usize>(rng.below(3));  // 2..4
  }
  return c;
}

/// What one run's caches did.
struct CacheTally {
  u64 hits = 0;
  u64 misses = 0;
  u64 flushes = 0;
  u64 lines_invalidated = 0;
  u64 failed_updates = 0;  ///< times caches that saw a failed update
  u64 readds = 0;          ///< re-adds of deleted rules applied

  void add(const telemetry::CounterSet& c, u64 failed, u64 readded) {
    hits += c[telemetry::Counter::cache_hits];
    misses += c[telemetry::Counter::cache_misses];
    flushes += c[telemetry::Counter::cache_flushes];
    lines_invalidated += c[telemetry::Counter::cache_lines_invalidated];
    failed_updates += failed;
    readds += readded;
  }
  [[nodiscard]] double hit_ratio() const {
    return hits + misses == 0 ? 0.0
                              : static_cast<double>(hits) /
                                    static_cast<double>(hits + misses);
  }
};

/// The inputs of one run: the rule set's publisher and the traffic.
struct CacheFuzzInputs {
  std::unique_ptr<dataplane::RuleProgramPublisher> pub;
  net::Trace trace;
  std::vector<net::FiveTuple> flows;  ///< distinct tuples of the trace
};

CacheFuzzInputs make_cache_inputs(const CacheFuzzConfig& c) {
  const ruleset::RuleSet rules = workload::synthesize(
      workload::RulesetProfile::by_family(c.family, c.rules_n, c.seed));
  CacheFuzzInputs in;
  {
    workload::TraceSynthesizer ts(
        rules, workload::TraceProfile::zipf_heavy(c.packets, c.seed ^ 1));
    in.trace = ts.generate();
  }
  in.flows = distinct_flows(in.trace);
  core::ClassifierConfig cfg =
      core::ClassifierConfig::for_scale(rules.size() + 64);
  cfg.combine_mode = core::CombineMode::kCrossProduct;  // exact => oracle
  cfg.ip_algorithm = c.alg;
  in.pub = std::make_unique<dataplane::RuleProgramPublisher>(cfg);
  in.pub->install_ruleset(rules);
  return in;
}

/// One element-chain run: an update before about one batch in three.
void run_cache_chain(const CacheFuzzConfig& c, CacheTally& tally) {
  CacheFuzzInputs in = make_cache_inputs(c);
  dataplane::VersionedOracle oracles;
  oracles.record(*in.pub);
  UpdateStream updates(c.seed ^ 0xCAC4E, in.flows);
  Rng rng(c.seed ^ 0xBA7C4);

  std::vector<dataplane::CapturedVerdict> captured;
  dataplane::Parser parser;
  dataplane::FlowCacheElement cache(in.pub.get(), c.cache_depth);
  dataplane::ClassifierElement classifier(in.pub.get(), &cache);
  dataplane::ActionSink sink(nullptr, &captured);

  net::PacketBatch b(c.batch);
  for (usize off = 0; off < in.trace.size(); off += c.batch) {
    if (rng.below(3) == 0) updates.step(*in.pub, oracles);
    b.clear();
    for (usize k = off; k < std::min(off + c.batch, in.trace.size()); ++k) {
      b.push(in.trace[k].header);
    }
    ASSERT_TRUE(dataplane::push_chain(b, nullptr, parser, &cache,
                                      classifier, sink));
  }
  ASSERT_EQ(captured.size(), in.trace.size()) << c.describe();
  oracles.judge(captured);
  ASSERT_TRUE(oracles.result().ok())
      << c.describe() << ": " << oracles.result().first_mismatch;
  telemetry::CounterSet counters;
  cache.fill_counters(counters);
  tally.add(counters, updates.failed(), updates.readds());
}

/// One multi-worker Engine run. The workers sweep in lockstep on a
/// barrier whose completion applies the updates, so the updates spread
/// over the whole run at batch boundaries instead of racing ahead of
/// the workers. Each worker thread sweeps once per batch of its shard,
/// plus a last sweep that finds its pool dry; it leaves the barrier on
/// that last one.
void run_cache_engine(const CacheFuzzConfig& c, CacheTally& tally) {
  CacheFuzzInputs in = make_cache_inputs(c);
  dataplane::VersionedOracle oracles;
  oracles.record(*in.pub);
  UpdateStream updates(c.seed ^ 0xCAC4E, in.flows);
  Rng rng(c.seed ^ 0xBA7C4);

  std::vector<u64> sweeps(c.workers);  // sweeps with work, per thread
  for (const auto& e : in.trace) {
    ++sweeps[dataplane::shard_of(e.header, c.workers)];
  }
  for (u64& n : sweeps) n = (n + c.batch - 1) / c.batch;

  std::atomic<bool> update_threw{false};
  std::barrier lockstep(static_cast<std::ptrdiff_t>(c.workers), [&]() noexcept {
    try {
      // Fewer, longer phases than the chain's batches: update at half.
      if (rng.below(2) == 0) updates.step(*in.pub, oracles);
    } catch (...) {
      update_threw.store(true);
    }
  });
  std::vector<u64> calls(c.workers);  // calls[w]: worker w's thread only
  dataplane::EngineConfig ecfg{.workers = c.workers,
                               .batch_size = c.batch,
                               .flow_cache_depth = c.cache_depth,
                               .telemetry = false,
                               .capture_verdicts = true};
  ecfg.worker_fault_hook = [&](usize w) {
    const u64 k = calls[w]++;
    if (k < sweeps[w]) {
      lockstep.arrive_and_wait();
    } else if (k == sweeps[w]) {
      lockstep.arrive_and_drop();
    }
  };
  dataplane::TrafficPool pool =
      dataplane::TrafficPool::from_trace(in.trace, /*materialize=*/false);
  dataplane::Engine engine(ecfg, *in.pub);
  const dataplane::EngineReport rep = engine.run(pool);

  ASSERT_FALSE(update_threw.load()) << c.describe();
  ASSERT_TRUE(rep.first_error().empty())
      << c.describe() << ": " << rep.first_error();
  ASSERT_EQ(rep.packets(), in.trace.size()) << c.describe();
  for (const auto& stream : rep.captured) oracles.judge(stream);
  ASSERT_TRUE(oracles.result().ok())
      << c.describe() << ": " << oracles.result().first_mismatch;
  // A failed update makes every shard's cache flush once.
  tally.add(dataplane::merge_reports(0, rep.shards).counters,
            updates.failed() * c.workers, updates.readds());
}

/// Drive \p iters drawn configurations through \p run; then the cache
/// must have served hits, dropped lines one by one and flushed at most
/// once per failed update (a standby rebuilt after one carries no
/// updates from before its version), and the stream must have re-added
/// deleted rules.
template <class Run>
void fuzz_cache(const char* tag, u64 seed, usize iters, bool engine,
                Run run) {
  std::cerr << "[" << tag << "] seed=" << seed << " iters=" << iters
            << " (override via PCLASS_FUZZ_SEED / PCLASS_FUZZ_ITERS)\n";
  Rng meta(seed);
  CacheTally tally;
  for (usize i = 0; i < iters; ++i) {
    const u64 cseed = meta.next();
    Rng rng(cseed);
    const CacheFuzzConfig c = draw_cache_config(rng, cseed, engine);
    SCOPED_TRACE("iter " + std::to_string(i) + ": " + c.describe());
    run(c, tally);
    if (::testing::Test::HasFatalFailure()) {
      std::cerr << "[" << tag << "] FAILED at iter " << i << ": "
                << c.describe() << "\n";
      return;
    }
  }
  std::cerr << "[" << tag << "] hit ratio " << tally.hit_ratio()
            << ", lines invalidated " << tally.lines_invalidated
            << ", flushes " << tally.flushes << ", failed updates "
            << tally.failed_updates << ", re-adds " << tally.readds << "\n";
  EXPECT_GE(tally.hit_ratio(), kMinCacheHitRatio);
  EXPECT_GT(tally.lines_invalidated, 0u);
  EXPECT_LE(tally.flushes, tally.failed_updates);
  EXPECT_GT(tally.readds, 0u);
}

}  // namespace

/// Fewest configurations a cache fuzz run draws, so its hit-ratio and
/// invalidation checks have data under any PCLASS_FUZZ_ITERS.
constexpr usize kMinCacheIters = 8;

TEST(CacheDifferentialFuzz, SelectiveInvalidationAgreesWithVersionedOracles) {
  const usize iters =
      static_cast<usize>(env_u64("PCLASS_FUZZ_ITERS", kDefaultIters));
  fuzz_cache("cache-fuzz", env_u64("PCLASS_FUZZ_SEED", kDefaultSeed) ^ 0xCAC4E,
             std::max(kMinCacheIters, iters), /*engine=*/false,
             run_cache_chain);
}

TEST(CacheDifferentialFuzz, LockstepEngineWorkersAgreeWithVersionedOracles) {
  // Thread-heavy runs: a quarter of the iterations.
  const usize iters =
      static_cast<usize>(env_u64("PCLASS_FUZZ_ITERS", kDefaultIters));
  fuzz_cache("cache-engine-fuzz",
             env_u64("PCLASS_FUZZ_SEED", kDefaultSeed) ^ 0xE4C4E,
             std::max(kMinCacheIters, iters / 4), /*engine=*/true,
             run_cache_engine);
}
