/// Tests for the robustness plane (PR 9): FaultPlan spec parsing and
/// round-tripping, FaultInjector fire-exactly-once semantics (worker
/// throw/stall, publisher apply failure, control-connection drop), the
/// publisher's all-or-nothing restore under an injected apply failure,
/// the engine's rejection of worker events it cannot fire, and the
/// engine supervisor: dead-worker restart with a healed (error-free)
/// report, permanent failure with shard takeover,
/// stall-episode detection, and the conservation ledger (delivered +
/// shed + lost == offered, exactly) on clean and faulted runs alike —
/// capped by a scaled-down run of the chaos scenario itself.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <vector>

#include "common/error.hpp"
#include "dataplane/engine.hpp"
#include "dataplane/rule_program.hpp"
#include "fault/fault.hpp"
#include "ruleset/generator.hpp"
#include "ruleset/trace_gen.hpp"
#include "workload/scenario.hpp"
#include "workload/trace_synth.hpp"

using namespace pclass;
using namespace pclass::dataplane;
using pclass::fault::FaultInjector;
using pclass::fault::FaultKind;
using pclass::fault::FaultPlan;
using pclass::fault::InjectedFault;
using pclass::telemetry::EngineCounter;

namespace {

core::ClassifierConfig exact_config(usize scale) {
  core::ClassifierConfig cfg = core::ClassifierConfig::for_scale(scale);
  cfg.combine_mode = core::CombineMode::kCrossProduct;
  return cfg;
}

/// A finite fw-like workload pool + installed publisher for the
/// supervisor tests.
struct Fixture {
  ruleset::RuleSet rules;
  net::Trace trace;
  RuleProgramPublisher programs;

  explicit Fixture(usize nrules = 1000, usize packets = 6000, u64 seed = 41)
      : rules(ruleset::make_classbench_like(ruleset::FilterType::kFw, nrules)),
        programs(exact_config(nrules)) {
    ruleset::TraceGenerator tg(rules, {.headers = packets, .seed = seed});
    trace = tg.generate();
    programs.install_ruleset(rules);
  }

  [[nodiscard]] TrafficPool pool() const {
    return TrafficPool::from_trace(trace, /*materialize=*/false);
  }
};

}  // namespace

// ---- FaultPlan spec -------------------------------------------------------

TEST(FaultPlan, ParseRoundTripsEveryEventKind) {
  const std::string spec =
      "throw:w=1@3,stall:w=2@1:ms=250,pubfail:u=2,conndrop:r=7";
  const FaultPlan plan = FaultPlan::parse(spec);
  ASSERT_EQ(plan.events.size(), 4u);

  EXPECT_EQ(plan.events[0].kind, FaultKind::kWorkerThrow);
  EXPECT_EQ(plan.events[0].worker, 1u);
  EXPECT_EQ(plan.events[0].at, 3u);

  EXPECT_EQ(plan.events[1].kind, FaultKind::kWorkerStall);
  EXPECT_EQ(plan.events[1].worker, 2u);
  EXPECT_EQ(plan.events[1].at, 1u);
  EXPECT_EQ(plan.events[1].stall_ms, 250u);

  EXPECT_EQ(plan.events[2].kind, FaultKind::kPublishFail);
  EXPECT_EQ(plan.events[2].at, 2u);

  EXPECT_EQ(plan.events[3].kind, FaultKind::kConnDrop);
  EXPECT_EQ(plan.events[3].at, 7u);

  // Round-trippable: to_string() re-parses to the same schedule.
  EXPECT_EQ(plan.to_string(), spec);
  const FaultPlan again = FaultPlan::parse(plan.to_string());
  ASSERT_EQ(again.events.size(), plan.events.size());
  EXPECT_EQ(again.to_string(), spec);
}

TEST(FaultPlan, EmptySpecIsEmptyPlan) {
  const FaultPlan plan = FaultPlan::parse("");
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.to_string(), "");
}

TEST(FaultPlan, MalformedSpecsThrowParseError) {
  EXPECT_THROW((void)FaultPlan::parse("explode:w=1@1"), ParseError);
  EXPECT_THROW((void)FaultPlan::parse("throw:w=1"), ParseError);
  EXPECT_THROW((void)FaultPlan::parse("throw:1@2"), ParseError);
  EXPECT_THROW((void)FaultPlan::parse("stall:w=0@0"), ParseError);
  EXPECT_THROW((void)FaultPlan::parse("pubfail:r=1"), ParseError);
  EXPECT_THROW((void)FaultPlan::parse("conndrop:u=x"), ParseError);
  EXPECT_THROW((void)FaultPlan::parse("throw:w=@2"), ParseError);
}

// ---- FaultInjector fire-once semantics ------------------------------------

TEST(FaultInjector, WorkerThrowFiresExactlyOnce) {
  FaultInjector inj(FaultPlan::parse("throw:w=0@2"));
  // Not due yet, and the wrong worker never fires.
  EXPECT_NO_THROW(inj.on_worker_batch(0, 0));
  EXPECT_NO_THROW(inj.on_worker_batch(0, 1));
  EXPECT_NO_THROW(inj.on_worker_batch(1, 2));
  EXPECT_THROW(inj.on_worker_batch(0, 2), InjectedFault);
  // Fired: the same (worker, sweep) and every later sweep are clean.
  EXPECT_NO_THROW(inj.on_worker_batch(0, 2));
  EXPECT_NO_THROW(inj.on_worker_batch(0, 3));
  EXPECT_EQ(inj.counters().worker_throws, 1u);
}

TEST(FaultInjector, WorkerThrowMatchesSweepGreaterOrEqual) {
  // A worker restarted past its scheduled sweep must still hit the
  // event (the persistent sweep counter can jump).
  FaultInjector inj(FaultPlan::parse("throw:w=0@2"));
  EXPECT_THROW(inj.on_worker_batch(0, 5), InjectedFault);
  EXPECT_EQ(inj.counters().worker_throws, 1u);
}

TEST(FaultInjector, StallIsAbortAware) {
  std::atomic<bool> abort{true};  // already stopping: stall must cut short
  FaultInjector inj(FaultPlan::parse("stall:w=0@0:ms=2000"));
  inj.set_abort_flag(&abort);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_NO_THROW(inj.on_worker_batch(0, 0));
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  EXPECT_LT(ms, 500) << "2s stall ignored the abort flag";
  EXPECT_EQ(inj.counters().worker_stalls, 1u);
  EXPECT_NO_THROW(inj.on_worker_batch(0, 1));  // fired once
}

TEST(FaultInjector, PublishFailHitsExactApplyIndex) {
  FaultInjector inj(FaultPlan::parse("pubfail:u=1"));
  EXPECT_NO_THROW(inj.on_publisher_apply());              // apply #0
  EXPECT_THROW(inj.on_publisher_apply(), InjectedFault);  // apply #1
  EXPECT_NO_THROW(inj.on_publisher_apply());              // apply #2
  EXPECT_EQ(inj.counters().publish_failures, 1u);
}

TEST(FaultInjector, ConnDropHitsExactRequestIndex) {
  FaultInjector inj(FaultPlan::parse("conndrop:r=2"));
  EXPECT_FALSE(inj.should_drop_request(0));
  EXPECT_FALSE(inj.should_drop_request(1));
  EXPECT_TRUE(inj.should_drop_request(2));
  EXPECT_FALSE(inj.should_drop_request(2));  // fired once
  EXPECT_FALSE(inj.should_drop_request(3));
  EXPECT_EQ(inj.counters().conn_drops, 1u);
}

// ---- publisher restore under an injected apply failure --------------------

TEST(PublisherFault, FailedApplyRestoresStateAndRetrySucceeds) {
  Fixture fx(1000, /*packets=*/64);
  FaultInjector inj(FaultPlan::parse("pubfail:u=0"));
  fx.programs.set_fault_hook([&inj] { inj.on_publisher_apply(); });

  const workload::UpdateStorm storm =
      workload::make_update_storm(fx.rules, /*updates=*/4,
                                  /*first_id=*/60'000, /*seed=*/7);
  const u64 v0 = fx.programs.version();
  const auto first = std::span<const sdn::Message>(storm.schedule.data(), 1);

  // The injected failure surfaces as InjectedFault and must leave the
  // publisher exactly where it was (all-or-nothing contract).
  EXPECT_THROW((void)fx.programs.apply_batch(first), InjectedFault);
  EXPECT_EQ(fx.programs.version(), v0);

  // The event fired; the identical retry goes through and publishes.
  EXPECT_NO_THROW((void)fx.programs.apply_batch(first));
  EXPECT_EQ(fx.programs.version(), v0 + 1);
  EXPECT_EQ(inj.counters().publish_failures, 1u);
}

// ---- supervisor -----------------------------------------------------------

namespace {

/// Two workers under a fast watchdog, faults from \p inj (optional).
EngineConfig supervised(FaultInjector* inj = nullptr) {
  EngineConfig cfg{.workers = 2, .batch_size = 32, .fault_injector = inj};
  cfg.supervisor = {.enabled = true,
                    .watchdog_interval_ms = 2,
                    .stall_deadline_ms = 500,
                    .max_restarts = 2,
                    .restart_backoff_ms = 1};
  return cfg;
}

/// The ledger of a finite run that delivered all \p n offered packets.
void expect_all_delivered(const EngineReport& rep, u64 n) {
  ASSERT_TRUE(rep.conservation_checked);
  EXPECT_TRUE(rep.conserved());
  EXPECT_EQ(rep.counters[EngineCounter::offered_packets], n);
  EXPECT_EQ(rep.counters[EngineCounter::delivered_packets], n);
  EXPECT_EQ(rep.counters[EngineCounter::shed_packets], 0u);
  EXPECT_EQ(rep.counters[EngineCounter::lost_packets], 0u);
}

}  // namespace

TEST(Supervisor, RestartsDeadWorkerAndHealsTheRun) {
  Fixture fx;
  FaultInjector inj(FaultPlan::parse("throw:w=0@0"));
  const EngineConfig cfg = supervised(&inj);

  TrafficPool pool = fx.pool();
  Engine engine(cfg, fx.programs);
  const EngineReport rep = engine.run(pool);

  // Healed: the death is in the log, not in the compat error field.
  EXPECT_TRUE(rep.first_error().empty()) << rep.first_error();
  EXPECT_GE(rep.counters[EngineCounter::worker_restarts], 1u);
  EXPECT_EQ(rep.counters[EngineCounter::workers_failed], 0u);
  ASSERT_GE(rep.error_log.size(), 1u);
  EXPECT_EQ(rep.error_log[0].worker, 0u);
  EXPECT_FALSE(rep.error_log[0].permanent);
  EXPECT_NE(rep.error_log[0].message.find("injected"), std::string::npos);

  // Conservation: the injected throw fires before a batch is claimed,
  // so nothing is lost and every offered packet is delivered.
  expect_all_delivered(rep, fx.trace.size());
  EXPECT_EQ(rep.packets(), fx.trace.size());
}

TEST(Supervisor, PermanentFailureHandsShardsToSurvivors) {
  Fixture fx;
  // Three deaths against a 2-restart budget: worker 1 fails for good
  // and the watchdog must reassign its undrained shards.
  FaultInjector inj(
      FaultPlan::parse("throw:w=1@0,throw:w=1@1,throw:w=1@2"));
  EngineConfig cfg = supervised(&inj);
  cfg.workers = 4;

  TrafficPool pool = fx.pool();
  Engine engine(cfg, fx.programs);
  const EngineReport rep = engine.run(pool);

  EXPECT_EQ(rep.counters[EngineCounter::worker_restarts], 2u);
  EXPECT_EQ(rep.counters[EngineCounter::workers_failed], 1u);
  EXPECT_GE(rep.counters[EngineCounter::shards_reassigned], 1u);
  EXPECT_EQ(inj.counters().worker_throws, 3u);

  // Taken-over shards mean nothing was shed or lost: the run still
  // delivers every packet, so the permanent failure is informational.
  EXPECT_TRUE(rep.first_error().empty()) << rep.first_error();
  expect_all_delivered(rep, fx.trace.size());

  // All three deaths surfaced, in incarnation order, only the last
  // permanent.
  ASSERT_EQ(rep.error_log.size(), 3u);
  for (usize k = 0; k < 3; ++k) {
    EXPECT_EQ(rep.error_log[k].worker, 1u);
    EXPECT_EQ(rep.error_log[k].restarts, k);
    EXPECT_EQ(rep.error_log[k].permanent, k == 2);
  }
}

TEST(Supervisor, DetectsStallEpisodeAndRunStillConcludes) {
  Fixture fx;
  FaultInjector inj(FaultPlan::parse("stall:w=0@1:ms=150"));
  EngineConfig cfg = supervised(&inj);
  cfg.supervisor.stall_deadline_ms = 25;  // well inside the 150ms stall

  TrafficPool pool = fx.pool();
  Engine engine(cfg, fx.programs);
  const EngineReport rep = engine.run(pool);

  EXPECT_TRUE(rep.first_error().empty()) << rep.first_error();
  EXPECT_GE(rep.counters[EngineCounter::stall_detections], 1u);
  // Stalled, not dead.
  EXPECT_EQ(rep.counters[EngineCounter::worker_restarts], 0u);
  EXPECT_EQ(rep.counters[EngineCounter::workers_failed], 0u);
  EXPECT_EQ(inj.counters().worker_stalls, 1u);
  expect_all_delivered(rep, fx.trace.size());
}

TEST(Supervisor, RejectsWorkerEventsPastTheThreadCount) {
  Fixture fx;
  // A two-thread engine has no worker 2, a three-thread engine no
  // worker 3. Either event would silently never fire.
  struct Case {
    const char* spec;
    usize workers;
  };
  for (const Case& c : {Case{"throw:w=2@0", 2}, Case{"stall:w=3@1:ms=5", 3}}) {
    FaultInjector inj(FaultPlan::parse(c.spec));
    EngineConfig cfg = supervised(&inj);
    cfg.workers = c.workers;
    TrafficPool pool = fx.pool();
    Engine engine(cfg, fx.programs);
    EXPECT_THROW(engine.start(pool), ConfigError) << c.spec;
    EXPECT_FALSE(engine.running()) << c.spec;
  }
  // Pubfail and conndrop name no worker, so any engine accepts them.
  FaultInjector inj(FaultPlan::parse("pubfail:u=0,conndrop:r=0"));
  TrafficPool pool = fx.pool();
  Engine engine(supervised(&inj), fx.programs);
  EXPECT_NO_THROW((void)engine.run(pool));
}

TEST(Supervisor, CleanRunLedgerIsExactAndQuiet) {
  Fixture fx;
  const EngineConfig cfg = supervised();

  TrafficPool pool = fx.pool();
  Engine engine(cfg, fx.programs);
  const EngineReport rep = engine.run(pool);

  EXPECT_TRUE(rep.first_error().empty()) << rep.first_error();
  EXPECT_EQ(rep.counters[EngineCounter::worker_restarts], 0u);
  EXPECT_EQ(rep.counters[EngineCounter::stall_detections], 0u);
  EXPECT_EQ(rep.counters[EngineCounter::shards_reassigned], 0u);
  EXPECT_EQ(rep.counters[EngineCounter::workers_failed], 0u);
  EXPECT_TRUE(rep.error_log.empty());
  expect_all_delivered(rep, fx.trace.size());
}

// ---- the chaos scenario, scaled down --------------------------------------

TEST(ChaosScenario, OracleCleanConservedAndSelfHealing) {
  workload::ScenarioOptions opts;
  opts.workers = 1;  // the scenario still runs its three workers
  opts.scale = 0.05;  // trace floor: the default plan targets it
  opts.seed = 2026;
  workload::ScenarioRunner runner(opts);
  const workload::ScenarioResult r = runner.run("chaos");

  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.oracle_mismatches, 0u);
  EXPECT_GT(r.oracle_checked, 0u);
  const telemetry::EngineCounterSet& c = r.engine_counters;
  EXPECT_GE(c[EngineCounter::worker_restarts], 1u);
  EXPECT_GE(c[EngineCounter::shards_reassigned], 1u);
  EXPECT_GE(r.injected.worker_throws, 1u);
  EXPECT_GE(r.injected.publish_failures, 1u);
  // The default plan's stall targets worker 2: it fired and was seen.
  EXPECT_EQ(r.injected.worker_stalls, 1u);
  EXPECT_GE(c[EngineCounter::stall_detections], 1u);
  ASSERT_TRUE(r.conservation_checked);
  EXPECT_TRUE(r.conserved);
  EXPECT_EQ(c[EngineCounter::delivered_packets] +
                c[EngineCounter::shed_packets] + c[EngineCounter::lost_packets],
            c[EngineCounter::offered_packets]);
  EXPECT_FALSE(r.fault_plan.empty());
}

TEST(ChaosScenario, PlanAimedPastTheLastWorkerFailsTheRun) {
  workload::ScenarioOptions opts;
  opts.workers = 1;
  opts.scale = 0.05;
  opts.fault_plan = "stall:w=9@1:ms=10";
  workload::ScenarioRunner runner(opts);
  const workload::ScenarioResult r = runner.run("chaos");

  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("worker 9"), std::string::npos) << r.error;
  EXPECT_EQ(r.injected.worker_stalls, 0u);
}
