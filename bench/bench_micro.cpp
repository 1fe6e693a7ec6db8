/// \file bench_micro.cpp
/// google-benchmark micro-benchmarks of the host-side hot paths: the
/// classify loop for each configuration, incremental updates, and the
/// software baselines. These measure *simulator* performance (how fast
/// the model runs on the host), complementing the cycle-level numbers
/// of the table benches.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <memory>

#include "baseline/hypercuts.hpp"
#include "baseline/linear_search.hpp"
#include "bench_util.hpp"
#include "core/flow_cache.hpp"

using namespace pclass;
using namespace pclass::bench;

namespace {

const Workload& acl1k() {
  static const Workload w = make_workload(ruleset::FilterType::kAcl, 1000,
                                          4096);
  return w;
}

void classify_loop(benchmark::State& state, core::IpAlgorithm alg,
                   core::CombineMode mode) {
  const Workload& w = acl1k();
  const auto clf = make_classifier(w.rules, alg, mode);
  usize i = 0;
  for (auto _ : state) {
    const auto res = clf->classify(w.trace[i & 4095].header);
    benchmark::DoNotOptimize(res.match);
    ++i;
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}

/// perfbench's 10k-rule ACL set.
const ruleset::RuleSet& acl10k() {
  static const ruleset::RuleSet rules =
      workload::synthesize(workload::RulesetProfile::acl(10000, 2026));
  return rules;
}

/// A publisher configured as perfbench's: exact combine, headroom for
/// 1024 adds.
std::unique_ptr<dataplane::RuleProgramPublisher> acl10k_publisher() {
  core::ClassifierConfig cfg =
      core::ClassifierConfig::for_scale(acl10k().size() + 1024);
  cfg.combine_mode = core::CombineMode::kCrossProduct;
  return std::make_unique<dataplane::RuleProgramPublisher>(cfg);
}

/// A 4096-line flow cache filled as perfbench's acl10k-churn fills its
/// caches (seed 1: four chained standard-profile draws of 16384 packets,
/// each packet's verdict from the 10k-rule classifier, in trace order),
/// and the eight heaviest flows of that trace, which churn's adds aim at.
struct ChurnCache {
  core::FlowCache cache{"bench-cache", 4096};
  std::vector<std::pair<net::FiveTuple, std::optional<core::RuleEntry>>> heavy;
};

const ChurnCache& churn_cache() {
  static const ChurnCache c = [] {
    ChurnCache out;
    const auto clf = make_classifier(acl10k(), core::IpAlgorithm::kMbt,
                                     core::CombineMode::kCrossProduct);
    std::map<net::FiveTuple, std::pair<u64, std::optional<core::RuleEntry>>> flows;
    for (u64 d = 0; d < 4; ++d) {
      const auto profile =
          workload::TraceProfile::standard(16384, (4 + d) ^ 0xABCD);
      for (const net::TraceEntry& e :
           workload::TraceSynthesizer(acl10k(), profile).generate()) {
        const std::optional<core::RuleEntry> v = clf->classify(e.header).match;
        out.cache.fill(e.header, v);
        auto& [n, verdict] = flows[e.header];
        ++n;
        verdict = v;
      }
    }
    std::vector<std::pair<u64, net::FiveTuple>> by_count;
    for (const auto& [t, f] : flows) by_count.emplace_back(f.first, t);
    std::stable_sort(by_count.begin(), by_count.end(),
                     [](const auto& a, const auto& b) {
                       return a.first > b.first;
                     });
    for (usize i = 0; i < 8 && i < by_count.size(); ++i) {
      const net::FiveTuple& t = by_count[i].second;
      out.heavy.emplace_back(t, flows.at(t).second);
    }
    return out;
  }();
  return c;
}

/// Churn's aimed add at flow \p t: its exact addresses, destination
/// port and protocol, priority 0, an id above every acl10k rule.
ruleset::Rule aimed_add(const net::FiveTuple& t, u32 id) {
  ruleset::Rule r;
  r.src_ip = ruleset::IpPrefix::make(t.src_ip, 32);
  r.dst_ip = ruleset::IpPrefix::make(t.dst_ip, 32);
  r.dst_port = ruleset::PortRange::exact(t.dst_port);
  r.proto = ruleset::ProtoMatch::exact(t.protocol);
  r.id = RuleId{id};
  r.priority = 0;
  return r;
}

}  // namespace

static void BM_ClassifyMbtFirstLabel(benchmark::State& state) {
  classify_loop(state, core::IpAlgorithm::kMbt,
                core::CombineMode::kFirstLabel);
}
BENCHMARK(BM_ClassifyMbtFirstLabel);

static void BM_ClassifyMbtCrossProduct(benchmark::State& state) {
  classify_loop(state, core::IpAlgorithm::kMbt,
                core::CombineMode::kCrossProduct);
}
BENCHMARK(BM_ClassifyMbtCrossProduct);

static void BM_ClassifyBstFirstLabel(benchmark::State& state) {
  classify_loop(state, core::IpAlgorithm::kBst,
                core::CombineMode::kFirstLabel);
}
BENCHMARK(BM_ClassifyBstFirstLabel);

// perfbench's acl10k-thrash lookup, without the engine around it: the
// 10k-rule ACL set and a pool of 32768 distinct flows in maximal repeat
// distance, so every lookup walks a cold path through the device, as
// every packet of that workload misses the flow cache. Reports ns per
// classify(); A/B a lookup-path change here before end-to-end runs.
static void BM_ClassifyAcl10kThrash(benchmark::State& state) {
  const ruleset::RuleSet& rules = acl10k();
  static const net::Trace pool = workload::make_cache_thrash_trace(
      rules, 32768, 32768, u64{1} ^ 0x7447);
  const auto clf = make_classifier(rules, core::IpAlgorithm::kMbt,
                                   core::CombineMode::kCrossProduct);
  usize i = 0;
  for (auto _ : state) {
    const auto res = clf->classify(pool[i].header);
    benchmark::DoNotOptimize(res.match);
    i = i + 1 == pool.size() ? 0 : i + 1;
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_ClassifyAcl10kThrash);

// perfbench's set-up without the packet pool, in ms: a publisher as
// perfbench configures it, the 10k-rule ACL install, and the empty batch
// whose catch-up brings the second replica to the log head (a copy of
// the published replica). The publisher is dropped outside the timing,
// as perfbench drops its throwaway set-ups.
static void BM_SetUpAcl10k(benchmark::State& state) {
  for (auto _ : state) {
    auto programs = acl10k_publisher();
    benchmark::DoNotOptimize(programs->install_ruleset(acl10k()));
    benchmark::DoNotOptimize(programs->apply_batch({}));
    state.PauseTiming();
    programs.reset();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_SetUpAcl10k)->Unit(benchmark::kMillisecond);

// The catch-up of BM_SetUpAcl10k alone, in ms: the install runs outside
// the timing, so what is timed is the empty batch that levels the
// second replica, i.e. the copy of a 10k-rule replica into an empty one.
static void BM_CatchUpAcl10k(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    auto programs = acl10k_publisher();
    programs->install_ruleset(acl10k());
    state.ResumeTiming();
    benchmark::DoNotOptimize(programs->apply_batch({}));
    state.PauseTiming();
    programs.reset();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_CatchUpAcl10k)->Unit(benchmark::kMillisecond);

// The flow-cache catch-up of one churn update, in ns per scan, on a
// full 4096-line cache filled from churn's traffic: an aimed /32 add
// (invalidate_matching) cycling over the eight heaviest flows. Each
// iteration first refills the aimed flow with its base verdict (one
// fill), so every scan drops one line, as a churn add does.
static void BM_FlowCacheCatchUpAdd(benchmark::State& state) {
  core::FlowCache cache = churn_cache().cache;
  const auto& heavy = churn_cache().heavy;
  std::vector<ruleset::Rule> adds;
  for (usize i = 0; i < heavy.size(); ++i) {
    adds.push_back(aimed_add(heavy[i].first, 60000 + static_cast<u32>(i)));
  }
  usize i = 0;
  for (auto _ : state) {
    cache.fill(heavy[i].first, heavy[i].second);
    benchmark::DoNotOptimize(cache.invalidate_matching(adds[i]));
    i = i + 1 == adds.size() ? 0 : i + 1;
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_FlowCacheCatchUpAdd)->Unit(benchmark::kNanosecond);

// The remove of BM_FlowCacheCatchUpAdd's rules (invalidate_rule): each
// iteration refills an aimed flow with its add's verdict, then scans for
// that rule, dropping the one line, as a churn remove does.
static void BM_FlowCacheCatchUpRemove(benchmark::State& state) {
  core::FlowCache cache = churn_cache().cache;
  const auto& heavy = churn_cache().heavy;
  usize i = 0;
  for (auto _ : state) {
    const RuleId id{60000 + static_cast<u32>(i)};
    cache.fill(heavy[i].first, core::RuleEntry{id, 0, 0});
    benchmark::DoNotOptimize(cache.invalidate_rule(id));
    i = i + 1 == heavy.size() ? 0 : i + 1;
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_FlowCacheCatchUpRemove)->Unit(benchmark::kNanosecond);

static void BM_AddRemoveRuleMbt(benchmark::State& state) {
  const Workload& w = acl1k();
  const auto clf = make_classifier(w.rules, core::IpAlgorithm::kMbt,
                                   core::CombineMode::kFirstLabel);
  // Churn one synthetic rule combining existing field values.
  ruleset::Rule r = w.rules[0];
  r.dst_port = w.rules[1].dst_port;
  r.id = RuleId{60000};
  r.priority = static_cast<Priority>(w.rules.size() + 7);
  bool fresh = true;
  for (const auto& x : w.rules) fresh &= !x.same_match(r);
  if (!fresh) {
    state.SkipWithError("synthetic churn rule collides");
    return;
  }
  for (auto _ : state) {
    clf->add_rule(r);
    clf->remove_rule(r.id);
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations() * 2));
}
BENCHMARK(BM_AddRemoveRuleMbt);

static void BM_LinearSearchOracle(benchmark::State& state) {
  const Workload& w = acl1k();
  const baseline::LinearSearch ls(w.rules);
  usize i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ls.classify(w.trace[i & 4095].header, nullptr));
    ++i;
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_LinearSearchOracle);

static void BM_HyperCutsLookup(benchmark::State& state) {
  const Workload& w = acl1k();
  const baseline::HyperCuts hc(w.rules);
  usize i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hc.classify(w.trace[i & 4095].header, nullptr));
    ++i;
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_HyperCutsLookup);

static void BM_PacketParse(benchmark::State& state) {
  const auto pkt = net::make_packet(
      {ipv4(10, 0, 0, 1), ipv4(10, 0, 0, 2), 1234, 80, net::kProtoTcp}, 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::parse_five_tuple(pkt.bytes));
  }
}
BENCHMARK(BM_PacketParse);

BENCHMARK_MAIN();
