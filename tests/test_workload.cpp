// Tests for src/workload: profile validation, synthesis determinism
// (same seed => byte-identical artifacts), binary I/O round-trips,
// generated-set validity invariants (every rule matchable, overlap
// fraction honoring the profile), trace structure (Zipf head, thrash
// distances, storm schedules) and a smoke run of the scenario runner
// with oracle verification.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <sstream>
#include <variant>

#include "common/error.hpp"
#include "workload/binio.hpp"
#include "workload/json_writer.hpp"
#include "workload/profile.hpp"
#include "workload/ruleset_synth.hpp"
#include "workload/scenario.hpp"
#include "workload/trace_synth.hpp"

using namespace pclass;
using namespace pclass::workload;
using telemetry::Counter;

namespace {

ruleset::RuleSet small_acl(usize rules = 300, u64 seed = 7) {
  return synthesize(RulesetProfile::acl(rules, seed));
}

}  // namespace

// ---- profiles -------------------------------------------------------------

TEST(Profile, FamiliesValidate) {
  for (const char* fam : {"acl", "fw", "ipc"}) {
    const RulesetProfile p = RulesetProfile::by_family(fam, 500);
    EXPECT_NO_THROW(p.validate());
    EXPECT_EQ(p.name, fam);
  }
  EXPECT_THROW(RulesetProfile::by_family("bogus", 500), ConfigError);
}

TEST(Profile, ValidationCatchesBadFields) {
  RulesetProfile p = RulesetProfile::acl(100);
  p.overlap_fraction = 1.5;
  EXPECT_THROW(p.validate(), ConfigError);
  p = RulesetProfile::acl(100);
  p.src_ip_pool = 0;
  EXPECT_THROW(p.validate(), ConfigError);
  p = RulesetProfile::acl(100);
  p.src_len.entries.clear();
  EXPECT_THROW(p.validate(), ConfigError);
  TraceProfile t = TraceProfile::standard(100, 1);
  t.locality = -0.1;
  EXPECT_THROW(t.validate(), ConfigError);
}

// ---- synthesis ------------------------------------------------------------

TEST(RulesetSynth, ReachesTargetAndDedups) {
  for (const char* fam : {"acl", "fw", "ipc"}) {
    const ruleset::RuleSet rs =
        synthesize(RulesetProfile::by_family(fam, 400, 11));
    EXPECT_EQ(rs.size(), 400u) << fam;
    // Priorities are the position (densified) and ids are unique.
    for (usize i = 0; i < rs.size(); ++i) {
      EXPECT_EQ(rs[i].priority, static_cast<Priority>(i));
    }
    EXPECT_EQ(rs.deduplicated().size(), rs.size()) << fam;
  }
}

TEST(RulesetSynth, EveryRuleIsMatchable) {
  // Validity invariant: no empty matches — each rule admits at least one
  // concrete header (derived inside its own region).
  const ruleset::RuleSet rs = small_acl(500, 3);
  Rng rng(99);
  for (const auto& r : rs) {
    const net::FiveTuple h = header_inside(r, rng);
    EXPECT_TRUE(r.matches(h));
  }
}

TEST(RulesetSynth, DeterministicBytesForSameSeed) {
  const ruleset::RuleSet a = synthesize(RulesetProfile::fw(350, 42));
  const ruleset::RuleSet b = synthesize(RulesetProfile::fw(350, 42));
  const ruleset::RuleSet c = synthesize(RulesetProfile::fw(350, 43));
  EXPECT_EQ(binio::ruleset_bytes(a), binio::ruleset_bytes(b));
  EXPECT_NE(binio::ruleset_bytes(a), binio::ruleset_bytes(c));
}

TEST(RulesetSynth, OverlapFractionHonorsProfile) {
  RulesetProfile lo = RulesetProfile::acl(400, 5);
  lo.overlap_fraction = 0.0;
  RulesetProfile hi = lo;
  hi.overlap_fraction = 0.6;
  const double f_lo = measured_overlap_fraction(synthesize(lo), 300);
  const double f_hi = measured_overlap_fraction(synthesize(hi), 300);
  // Injected specializations guarantee at least roughly the requested
  // overlap (pool nesting adds a natural floor on top).
  EXPECT_GE(f_hi, 0.5);
  EXPECT_GE(f_hi, f_lo);
}

TEST(RulesetSynth, RulesOverlapSemantics) {
  ruleset::Rule a, b;
  a.src_ip = ruleset::IpPrefix::make(0x0A000000, 8);
  b.src_ip = ruleset::IpPrefix::make(0x0A010000, 16);  // nested in a
  EXPECT_TRUE(rules_overlap(a, b));
  b.src_ip = ruleset::IpPrefix::make(0x0B000000, 8);  // disjoint
  EXPECT_FALSE(rules_overlap(a, b));
  b.src_ip = a.src_ip;
  a.dst_port = ruleset::PortRange::make(10, 20);
  b.dst_port = ruleset::PortRange::make(21, 30);  // disjoint ports
  EXPECT_FALSE(rules_overlap(a, b));
  b.dst_port = ruleset::PortRange::make(20, 25);  // touching
  EXPECT_TRUE(rules_overlap(a, b));
  a.proto = ruleset::ProtoMatch::exact(6);
  b.proto = ruleset::ProtoMatch::exact(17);
  EXPECT_FALSE(rules_overlap(a, b));
}

// ---- traces ---------------------------------------------------------------

TEST(TraceSynth, DeterministicBytesForSameSeed) {
  const ruleset::RuleSet rs = small_acl();
  const TraceProfile tp = TraceProfile::standard(2000, 77);
  const net::Trace a = TraceSynthesizer(rs, tp).generate();
  const net::Trace b = TraceSynthesizer(rs, tp).generate();
  EXPECT_EQ(binio::trace_bytes(a), binio::trace_bytes(b));
  TraceProfile tp2 = tp;
  tp2.seed = 78;
  const net::Trace c = TraceSynthesizer(rs, tp2).generate();
  EXPECT_NE(binio::trace_bytes(a), binio::trace_bytes(c));
}

TEST(TraceSynth, ZipfHeadDominates) {
  const ruleset::RuleSet rs = small_acl();
  TraceProfile tp = TraceProfile::zipf_heavy(8000, 5);
  const net::Trace t = TraceSynthesizer(rs, tp).generate();
  ASSERT_EQ(t.size(), 8000u);
  // Count distinct headers; heavy-head Zipf + bursts means the most
  // popular flow carries far more than a uniform share.
  std::map<net::FiveTuple, usize> freq;
  for (const auto& e : t) ++freq[e.header];
  usize top = 0;
  for (const auto& [h, n] : freq) top = std::max(top, n);
  EXPECT_GT(top, t.size() / tp.flows * 4);
}

TEST(TraceSynth, DerivedEntriesMatchOriginRule) {
  const ruleset::RuleSet rs = small_acl();
  const net::Trace t =
      TraceSynthesizer(rs, TraceProfile::standard(1500, 13)).generate();
  usize derived = 0;
  for (const auto& e : t) {
    if (!e.origin_rule) continue;
    ++derived;
    const auto rule = rs.find(*e.origin_rule);
    ASSERT_TRUE(rule.has_value());
    EXPECT_TRUE(rule->matches(e.header));
  }
  EXPECT_GT(derived, t.size() / 2);  // miss fraction is small
}

TEST(TraceSynth, CacheThrashMaximizesRepeatDistance) {
  const ruleset::RuleSet rs = small_acl();
  const net::Trace t = make_cache_thrash_trace(rs, 1000, 250, 21);
  ASSERT_EQ(t.size(), 1000u);
  // Round-robin: entry i repeats exactly every 250 packets.
  for (usize i = 0; i + 250 < t.size(); i += 97) {
    EXPECT_EQ(t[i].header, t[i + 250].header);
    EXPECT_NE(t[i].header, t[i + 1].header);
  }
}

TEST(TraceSynth, TrieDepthTargetsLongestPrefixes) {
  const ruleset::RuleSet rs = small_acl();
  unsigned max_len = 0;
  for (const auto& r : rs) {
    max_len = std::max<unsigned>(max_len,
                                 r.src_ip.length + r.dst_ip.length);
  }
  const net::Trace t = make_trie_depth_trace(rs, 500, 9);
  // Every derived entry originates from a maximally-long-prefix rule
  // cohort (within the top-1/16 of the set by combined length).
  for (const auto& e : t) {
    if (!e.origin_rule) continue;
    const auto rule = rs.find(*e.origin_rule);
    ASSERT_TRUE(rule.has_value());
    EXPECT_GE(rule->src_ip.length + rule->dst_ip.length, max_len / 2);
  }
}

TEST(TraceSynth, UpdateStormSchedulesBalancedPairs) {
  const ruleset::RuleSet rs = small_acl();
  const UpdateStorm storm = make_update_storm(rs, 400, 60'000, 17);
  EXPECT_EQ(storm.schedule.size(), 400u);
  EXPECT_EQ(storm.add_count, 200u);
  EXPECT_EQ(storm.delete_count, 200u);
  // Adds and deletes alternate so the installed churn set stays <= 1.
  for (usize i = 0; i < storm.schedule.size(); ++i) {
    const auto* fm = std::get_if<sdn::FlowMod>(&storm.schedule[i]);
    ASSERT_NE(fm, nullptr);
    EXPECT_EQ(fm->command, i % 2 == 0 ? sdn::FlowMod::Command::kAdd
                                      : sdn::FlowMod::Command::kDelete);
    EXPECT_GE(fm->cookie.value, 60'000u);
    EXPECT_LT(fm->cookie.value, 65'536u);
  }
  EXPECT_THROW(make_update_storm(rs, 10, 65'400, 1), ConfigError);
}

// ---- binary I/O -----------------------------------------------------------

TEST(BinIo, RulesetRoundTripsExactly) {
  const ruleset::RuleSet rs = synthesize(RulesetProfile::ipc(250, 31));
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  binio::save_ruleset(ss, rs);
  const ruleset::RuleSet back = binio::load_ruleset(ss);
  ASSERT_EQ(back.size(), rs.size());
  EXPECT_EQ(back.name(), rs.name());
  for (usize i = 0; i < rs.size(); ++i) {
    EXPECT_TRUE(rs[i].same_match(back[i]));
    EXPECT_EQ(rs[i].priority, back[i].priority);
    EXPECT_EQ(rs[i].id, back[i].id);
    EXPECT_EQ(rs[i].action, back[i].action);
  }
  // Byte-identity through a second round trip.
  EXPECT_EQ(binio::ruleset_bytes(rs), binio::ruleset_bytes(back));
}

TEST(BinIo, TraceRoundTripsExactly) {
  const ruleset::RuleSet rs = small_acl();
  const net::Trace t =
      TraceSynthesizer(rs, TraceProfile::standard(800, 3)).generate();
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  t.write_binary(ss);
  const net::Trace back = net::Trace::read_binary(ss);
  ASSERT_EQ(back.size(), t.size());
  for (usize i = 0; i < t.size(); ++i) {
    EXPECT_EQ(t[i].header, back[i].header);
    EXPECT_EQ(t[i].origin_rule, back[i].origin_rule);
  }
  EXPECT_EQ(binio::trace_bytes(t), binio::trace_bytes(back));
}

TEST(BinIo, PreservesExplicitFrontPriorityAtAnyPosition) {
  // A priority-0 rule appended at a non-front position (the shape storm
  // churn rules have) must survive the round trip verbatim — the loader
  // may not let RuleSet::add()'s position-based back-fill rewrite it.
  ruleset::RuleSet rs("front-prio");
  ruleset::Rule a;
  a.src_ip = ruleset::IpPrefix::make(0x0A000000, 8);
  a.priority = 5;
  a.id = RuleId{1};
  rs.add_verbatim(a);
  ruleset::Rule front;
  front.src_ip = ruleset::IpPrefix::make(0x0A010000, 16);
  front.priority = 0;  // explicit front priority, non-front position
  front.id = RuleId{2};
  rs.add_verbatim(front);

  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  binio::save_ruleset(ss, rs);
  const ruleset::RuleSet back = binio::load_ruleset(ss);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[1].priority, 0u);
  EXPECT_EQ(back[1].id, RuleId{2});
}

TEST(BinIo, RejectsBadMagicAndTruncation) {
  std::stringstream bad("nonsense bytes here");
  EXPECT_THROW((void)binio::load_ruleset(bad), ParseError);
  std::stringstream bad2("XXXX");
  EXPECT_THROW((void)net::Trace::read_binary(bad2), ParseError);
  // Truncate a valid stream mid-payload.
  const ruleset::RuleSet rs = small_acl(64, 2);
  const std::string bytes = binio::ruleset_bytes(rs);
  std::stringstream cut(bytes.substr(0, bytes.size() / 2),
                        std::ios::in | std::ios::binary);
  EXPECT_THROW((void)binio::load_ruleset(cut), ParseError);
}

// ---- JSON writer ----------------------------------------------------------

TEST(JsonWriter, EscapesAndNests) {
  std::ostringstream os;
  JsonWriter j(os);
  j.begin_object();
  j.key("s").value("a\"b\\c\nd");
  j.key("n").value(u64{42});
  j.key("f").value(0.5);
  j.key("arr").begin_array().value(true).value(false).end_array();
  j.end_object();
  EXPECT_TRUE(j.complete());
  EXPECT_EQ(os.str(),
            "{\"s\":\"a\\\"b\\\\c\\nd\",\"n\":42,\"f\":0.5,"
            "\"arr\":[true,false]}");
}

TEST(JsonWriter, MisuseThrows) {
  std::ostringstream os;
  JsonWriter j(os);
  j.begin_object();
  EXPECT_THROW(j.value("no key"), InternalError);
  EXPECT_THROW(j.end_array(), InternalError);
}

// ---- scenarios ------------------------------------------------------------

TEST(Scenario, CatalogHasRequiredEntries) {
  const auto& cat = ScenarioRunner::catalog();
  EXPECT_GE(cat.size(), 6u);
  for (const char* required :
       {"acl-like", "fw-like", "ipc-like", "zipf-locality", "cache-thrash",
        "update-storm", "update-storm-multi"}) {
    EXPECT_TRUE(std::any_of(cat.begin(), cat.end(),
                            [&](const ScenarioSpec& s) {
                              return s.name == required;
                            }))
        << required;
  }
  ScenarioRunner runner({.workers = 1, .scale = 0.05});
  EXPECT_THROW((void)runner.run("nope"), ConfigError);
}

TEST(ScenarioRunner, RejectsZeroWorkers) {
  ScenarioOptions opts;
  opts.workers = 0;
  EXPECT_THROW((ScenarioRunner{opts}), ConfigError);
}

TEST(Scenario, EveryCatalogScenarioCarriesItsPublisherRows) {
  using telemetry::PublisherCounter;
  ScenarioRunner runner({.workers = 2, .scale = 0.04, .seed = 3});
  for (const ScenarioResult& r : runner.run_all()) {
    SCOPED_TRACE(r.name);
    EXPECT_TRUE(r.ok()) << r.error;
    const telemetry::PublisherCounterSet& p = r.publisher;
    // The install is one publish of one update per rule; every
    // scheduled update lands once on top.
    EXPECT_GE(p[PublisherCounter::publishes], 1u);
    EXPECT_EQ(p[PublisherCounter::updates_applied],
              r.rules + r.updates_applied);
    EXPECT_EQ(p[PublisherCounter::version],
              p[PublisherCounter::updates_applied]);
  }
}

TEST(Scenario, SmokeRunOracleClean) {
  // Tiny scale keeps this test fast while still exercising the whole
  // engine + oracle path for a representative subset.
  ScenarioRunner runner({.workers = 2, .scale = 0.04, .seed = 5});
  for (const char* name : {"acl-like", "cache-thrash", "update-storm"}) {
    const ScenarioResult r = runner.run(name);
    EXPECT_TRUE(r.ok()) << name << ": " << r.error << " (mismatches "
                        << r.oracle_mismatches << ")";
    EXPECT_GT(r.engine.counters[Counter::packets], 0u) << name;
    EXPECT_GT(r.oracle_checked, 0u) << name;
    EXPECT_EQ(r.oracle_mismatches, 0u) << name;
    if (std::string(name) == "update-storm") {
      EXPECT_GT(r.updates_applied, 0u);
    }
  }
}

TEST(Scenario, MultiWriterStormOracleCleanUnderContention) {
  ScenarioRunner runner({.workers = 2, .scale = 0.04, .seed = 11});
  const ScenarioResult r = runner.run("update-storm-multi");
  EXPECT_TRUE(r.ok()) << r.error << " (mismatches " << r.oracle_mismatches
                      << ")";
  EXPECT_GT(r.updates_applied, 0u);
  EXPECT_GT(r.engine.counters[Counter::packets], 0u);
  EXPECT_EQ(r.oracle_mismatches, 0u);
  // 4 writers x >= 256 paced messages each actually went through.
  EXPECT_GE(r.updates_applied, 1024u);
  // The workers saw the published version move many times mid-trace
  // (each publish rotates the replica under them).
  EXPECT_GT(r.engine.counters[Counter::update_visibility_samples], 2u);
}

TEST(Scenario, CacheThrashDefeatsCacheAndZipfFeedsIt) {
  const std::string dir = testing::TempDir() + "pclass_run_many";
  std::filesystem::remove_all(dir);
  ScenarioRunner runner({.workers = 1, .scale = 0.04, .seed = 8,
                         .save_workloads_dir = dir});
  // An unknown name anywhere in the list throws before any scenario
  // runs: nothing was saved.
  EXPECT_THROW((void)runner.run_many({"cache-thrash", "nope"}), ConfigError);
  EXPECT_FALSE(std::filesystem::exists(dir));
  // Results keep the request order, not the catalog's.
  const auto results = runner.run_many({"cache-thrash", "zipf-locality"});
  std::filesystem::remove_all(dir);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].name, "cache-thrash");
  EXPECT_EQ(results[1].name, "zipf-locality");
  const ScenarioResult& thrash = results[0];
  const ScenarioResult& zipf = results[1];
  ASSERT_TRUE(thrash.ok()) << thrash.error;
  ASSERT_TRUE(zipf.ok()) << zipf.error;
  EXPECT_LT(thrash.engine.counters.cache_hit_rate(), 0.05);
  EXPECT_GT(zipf.engine.counters.cache_hit_rate(), 0.5);
  // Per-worker recorder plumbing delivers the access totals.
  EXPECT_GT(thrash.engine.counters[Counter::memory_accesses], 0u);
}

TEST(Scenario, JsonReportIsWellFormedish) {
  ScenarioRunner runner({.workers = 1, .scale = 0.04, .seed = 2});
  std::vector<ScenarioResult> results = {runner.run("acl-like")};
  std::ostringstream os;
  write_json_report(os, runner.options(), results);
  const std::string s = os.str();
  EXPECT_NE(s.find("\"schema\":\"pclass-scenarios-v9\""), std::string::npos);
  // v9 moved grace_spins from `updates` to the publisher rows.
  EXPECT_NE(s.find("\"publisher_counters\":{\"version\":"), std::string::npos);
  EXPECT_NE(s.find("\"publisher\":{\"version\":"), std::string::npos);
  const usize updates_at = s.find("\"updates\":{");
  EXPECT_EQ(s.substr(updates_at, s.find('}', updates_at) - updates_at)
                .find("grace_spins"),
            std::string::npos);
  // v8 dropped the shards option; every scenario carries its shard rows.
  const usize opts_at = s.find("\"options\":");
  const std::string options =
      s.substr(opts_at, s.find("\"counters\":") - opts_at);
  EXPECT_EQ(options.find("\"shards\""), std::string::npos) << options;
  EXPECT_NE(s.find("\"shards\":[{\"shard\":0,"), std::string::npos);
  // v7 dropped the parallel catalog run's options.
  EXPECT_EQ(s.find("\"parallel\""), std::string::npos);
  // v6 moved the supervisor, ledger and trace-loss rows to `engine`
  // and dropped the steering options.
  EXPECT_NE(s.find("\"engine\":{\"worker_restarts\":0,"), std::string::npos);
  EXPECT_EQ(s.find("\"steer_symmetric\""), std::string::npos);
  // v5 dropped the path controller's rows, cost models and option.
  EXPECT_EQ(s.find("\"path_scalar_loop_batches\""), std::string::npos);
  EXPECT_EQ(s.find("\"controller\""), std::string::npos);
  EXPECT_EQ(s.find("\"path_policy\""), std::string::npos);
  // v2 dropped the retired knobs' option fields.
  EXPECT_EQ(s.find("\"memo_ways\""), std::string::npos);
  EXPECT_EQ(s.find("\"memo_persistent\""), std::string::npos);
  EXPECT_EQ(s.find("\"batch_mode\""), std::string::npos);
  EXPECT_NE(s.find("\"name\":\"acl-like\""), std::string::npos);
  EXPECT_NE(s.find("\"all_ok\":true"), std::string::npos);
  // Balanced braces/brackets (cheap structural sanity).
  EXPECT_EQ(std::count(s.begin(), s.end(), '{'),
            std::count(s.begin(), s.end(), '}'));
  EXPECT_EQ(std::count(s.begin(), s.end(), '['),
            std::count(s.begin(), s.end(), ']'));
}
