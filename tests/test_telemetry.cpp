/// Tests for the observability subsystem: TraceRing SPSC semantics
/// (order, overwrite-oldest accounting, torn-read rejection under a
/// concurrent writer), histogram bucket round-trips and interpolated
/// percentiles, StatsSampler delta correctness (sum of interval deltas
/// == end-of-run totals), update-visibility latency on a deterministic
/// update storm, worker-error surfacing, and the two file exporters.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <sstream>
#include <thread>

#include "dataplane/engine.hpp"
#include "telemetry/export.hpp"
#include "telemetry/publish_clock.hpp"
#include "telemetry/trace_ring.hpp"
#include "workload/scenario.hpp"

using namespace pclass;
using namespace pclass::telemetry;

namespace {

TraceEvent make_event(u64 i) {
  TraceEvent e;
  e.t_start_ns = 1000 + i;
  e.duration_ns = 10 * i;
  e.worker = static_cast<u32>(i % 7);
  e.packets = static_cast<u32>(i % 33);
  e.lookups = static_cast<u32>(i % 17);
  e.snapshot_version = i;
  return e;
}

/// Every field of \p e matches what make_event(i) produced — a torn
/// copy would mix fields of two different i.
void expect_consistent(const TraceEvent& e) {
  const u64 i = e.snapshot_version;
  EXPECT_EQ(e.t_start_ns, 1000 + i);
  EXPECT_EQ(e.duration_ns, 10 * i);
  EXPECT_EQ(e.worker, i % 7);
  EXPECT_EQ(e.packets, i % 33);
  EXPECT_EQ(e.lookups, i % 17);
}

TEST(TraceEvent, PackUnpackRoundTrips) {
  for (u64 i : {u64{0}, u64{1}, u64{12345}, u64{0xFFFF}}) {
    const TraceEvent e = make_event(i);
    const TraceEvent r = TraceEvent::unpack(e.pack());
    EXPECT_EQ(r.t_start_ns, e.t_start_ns);
    EXPECT_EQ(r.duration_ns, e.duration_ns);
    EXPECT_EQ(r.worker, e.worker);
    EXPECT_EQ(r.packets, e.packets);
    EXPECT_EQ(r.lookups, e.lookups);
    EXPECT_EQ(r.snapshot_version, e.snapshot_version);
  }
}

TEST(TraceRing, DrainsInOrderWithoutLoss) {
  TraceRing ring(16);
  for (u64 i = 0; i < 10; ++i) ring.push(make_event(i));
  std::vector<TraceEvent> out;
  EXPECT_EQ(ring.drain(&out), 10u);
  ASSERT_EQ(out.size(), 10u);
  for (u64 i = 0; i < 10; ++i) {
    EXPECT_EQ(out[i].snapshot_version, i);
    expect_consistent(out[i]);
  }
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_EQ(ring.pushed(), 10u);
  // A second drain sees nothing new.
  EXPECT_EQ(ring.drain(&out), 0u);
}

TEST(TraceRing, OverwritesOldestAndCountsDrops) {
  TraceRing ring(8);  // power of two already
  const u64 kPushed = 100;
  for (u64 i = 0; i < kPushed; ++i) ring.push(make_event(i));
  std::vector<TraceEvent> out;
  const usize drained = ring.drain(&out);
  // Only the newest <= capacity events survive; the rest are accounted.
  EXPECT_LE(drained, ring.capacity());
  EXPECT_EQ(drained + ring.dropped(), kPushed);
  // What survived is the tail, in order.
  for (usize k = 1; k < out.size(); ++k) {
    EXPECT_EQ(out[k].snapshot_version, out[k - 1].snapshot_version + 1);
  }
  EXPECT_EQ(out.back().snapshot_version, kPushed - 1);
}

TEST(TraceRing, ConcurrentWriterReaderNeverTearsAndAccountsEverything) {
  TraceRing ring(64);
  const u64 kEvents = 200'000;
  std::vector<TraceEvent> out;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (u64 i = 0; i < kEvents; ++i) ring.push(make_event(i));
    done.store(true, std::memory_order_release);
  });
  usize drained = 0;
  while (!done.load(std::memory_order_acquire)) {
    drained += ring.drain(&out);
  }
  writer.join();
  drained += ring.drain(&out);  // final drain after the writer stopped
  EXPECT_EQ(drained + ring.dropped(), kEvents);
  EXPECT_EQ(ring.pushed(), kEvents);
  EXPECT_GT(drained, 0u);
  u64 prev = 0;
  bool first = true;
  for (const TraceEvent& e : out) {
    expect_consistent(e);  // no torn slot ever surfaced
    if (!first) EXPECT_GT(e.snapshot_version, prev);  // strictly newer
    prev = e.snapshot_version;
    first = false;
  }
}

TEST(PublishClock, ResolvesNotedVersionsAndMissesRecycled) {
  PublishClock clock;
  clock.note(1, 111);
  clock.note(2, 222);
  ASSERT_TRUE(clock.lookup(1).has_value());
  EXPECT_EQ(*clock.lookup(1), 111u);
  ASSERT_TRUE(clock.lookup(2).has_value());
  EXPECT_EQ(*clock.lookup(2), 222u);
  EXPECT_FALSE(clock.lookup(3).has_value());
  EXPECT_FALSE(clock.lookup(0).has_value());
  // A version that shares a slot with a newer one is gone (recycled).
  clock.note(1 + PublishClock::kSlots, 333);
  EXPECT_FALSE(clock.lookup(1).has_value());
  EXPECT_EQ(*clock.lookup(1 + PublishClock::kSlots), 333u);
}

// ---- LatencyHistogram ------------------------------------------------------

TEST(LatencyHistogram, BucketRoundTripProperty) {
  using H = dataplane::LatencyHistogram;
  // bucket_floor(b) must be the smallest value mapping to bucket b, and
  // every value must land in a bucket whose floor is <= it. Only
  // reachable buckets round-trip: bucket_of caps at what a u64 can
  // express (~bucket 251), and floors above that would overflow.
  const usize top = H::bucket_of(~u64{0});
  ASSERT_LT(top, H::kBuckets);
  for (usize b = 0; b < top; ++b) {
    const u64 lo = H::bucket_floor(b);
    const u64 next = H::bucket_floor(b + 1);
    EXPECT_EQ(H::bucket_of(lo), b) << "floor of bucket " << b;
    ASSERT_GT(next, lo);
    EXPECT_EQ(H::bucket_of(next - 1), b) << "last value of bucket " << b;
  }
  u64 checked = 0;
  for (u64 v = 0; v < 100'000; v = v < 256 ? v + 1 : v + v / 7) {
    const usize b = H::bucket_of(v);
    EXPECT_LE(H::bucket_floor(b), v);
    if (b + 1 < H::kBuckets) EXPECT_GT(H::bucket_floor(b + 1), v);
    ++checked;
  }
  EXPECT_GT(checked, 300u);
}

TEST(LatencyHistogram, EmptyAndSingleSamplePercentiles) {
  dataplane::LatencyHistogram h;
  EXPECT_EQ(h.percentile(50), 0u);
  EXPECT_EQ(h.percentile(99), 0u);
  h.record(37);
  // A single sample is every percentile, exactly (clamped to [min,max]).
  EXPECT_EQ(h.percentile(0), 37u);
  EXPECT_EQ(h.percentile(50), 37u);
  EXPECT_EQ(h.percentile(99), 37u);
  EXPECT_EQ(h.percentile(100), 37u);
}

TEST(LatencyHistogram, PercentileInterpolatesWithinBucket) {
  using H = dataplane::LatencyHistogram;
  // Fill one wide bucket uniformly; interpolated percentiles must move
  // through the bucket instead of snapping to its floor.
  dataplane::LatencyHistogram h;
  const u64 lo = 1 << 10;  // bucket floors: 1024, 1280, 1536, ... (4/octave)
  const usize b = H::bucket_of(lo);
  const u64 hi = H::bucket_floor(b + 1);
  ASSERT_GT(hi, lo + 8);  // genuinely wide
  for (u64 v = lo; v < hi; ++v) h.record(v);
  const u64 p25 = h.percentile(25);
  const u64 p50 = h.percentile(50);
  const u64 p75 = h.percentile(75);
  EXPECT_LT(p25, p50);
  EXPECT_LT(p50, p75);  // the pre-fix behavior returned the same floor 3x
  EXPECT_GE(p25, lo);
  EXPECT_LE(p75, hi);
  // The median of a uniform fill sits near the bucket midpoint.
  const u64 mid = lo + (hi - lo) / 2;
  EXPECT_NEAR(static_cast<double>(p50), static_cast<double>(mid),
              static_cast<double>(hi - lo) / 8.0);
}

TEST(LatencyHistogram, OverflowBucketReturnsItsFloor) {
  using H = dataplane::LatencyHistogram;
  dataplane::LatencyHistogram h;
  const u64 huge = ~u64{0} - 3;
  h.record(huge);
  h.record(huge - 1);
  const u64 p99 = h.percentile(99);
  // The overflow bucket has no upper edge to interpolate toward; the
  // percentile reports its floor, clamped into the observed range.
  EXPECT_GE(p99, H::bucket_floor(H::kBuckets - 1));
  EXPECT_LE(p99, huge);
}

// ---- Engine-level telemetry -----------------------------------------------

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

core::ClassifierConfig small_config() {
  core::ClassifierConfig cfg = core::ClassifierConfig::for_scale(1000);
  cfg.ip_algorithm = core::IpAlgorithm::kBst;
  return cfg;
}

TEST(StatsSampler, IntervalDeltasSumToEndOfRunTotals) {
  dataplane::RuleProgramPublisher programs(small_config());
  for (u32 i = 0; i < 64; ++i) programs.apply(add_msg(i));
  dataplane::TrafficPool pool;
  const u64 kPackets = 20'000;
  for (u32 i = 0; i < kPackets; ++i) pool.add(probe_tuple(i % 64));

  dataplane::Engine engine({.workers = 2,
                            .batch_size = 32,
                            .flow_cache_depth = 256,
                            .stats_interval_ms = 1,
                            .collect_trace = true},
                           programs);
  const dataplane::EngineReport rep = engine.run(pool);

  EXPECT_EQ(rep.packets(), kPackets);
  ASSERT_FALSE(rep.timeseries.empty());
  // Every counter row: the merged interval rows are the totals.
  telemetry::CounterSet merged;
  for (const StatsSample& s : rep.timeseries) merged.merge(s.counters);
  EXPECT_TRUE(merged == dataplane::merge_reports(0, rep.workers).counters);

  // The collected spans are plausible and attributed to real workers.
  EXPECT_GT(rep.trace_events.size(), 0u);
  for (const TraceEvent& e : rep.trace_events) {
    EXPECT_LT(e.worker, 2u);
    EXPECT_GT(e.packets, 0u);
  }
}

TEST(UpdateVisibility, MeasuredOnDeterministicUpdateStorm) {
  dataplane::RuleProgramPublisher programs(small_config());
  programs.apply(add_msg(1));
  dataplane::TrafficPool pool;
  for (u32 i = 0; i < 256; ++i) pool.add(probe_tuple(i % 8 + 1));

  dataplane::Engine engine(
      {.workers = 2, .batch_size = 16, .loop = true, .stats_interval_ms = 2},
      programs);
  engine.start(pool);
  for (u32 i = 2; i <= 60; ++i) {
    programs.apply(add_msg(i));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const dataplane::EngineReport rep = engine.stop();

  const UpdateVisibility vis =
      dataplane::merge_reports(0, rep.workers).counters.update_visibility();
  EXPECT_GT(vis.samples, 0u);
  EXPECT_GT(vis.mean_ns, 0.0);
  EXPECT_TRUE(std::isfinite(vis.mean_ns));
  EXPECT_GE(static_cast<double>(vis.max_ns), vis.mean_ns);
  // Workers polled every batch over a ~60ms run; seeing a publish take
  // longer than the whole run to become visible would mean the clock or
  // the sampling is broken.
  EXPECT_LT(vis.max_ns, u64{10} * 1000 * 1000 * 1000);
  // The sampler saw the version advance mid-run.
  ASSERT_FALSE(rep.timeseries.empty());
  EXPECT_GT(rep.timeseries.back().counters[Counter::snapshot_version],
            rep.timeseries.front().min_version);
}

TEST(WorkerErrors, FaultHookSurfacesInReportAndScenarioJson) {
  dataplane::RuleProgramPublisher programs(small_config());
  programs.apply(add_msg(1));
  dataplane::TrafficPool pool;
  u64 worker0_share = 0;  // packets steered to worker 0's shard
  for (u32 i = 0; i < 64; ++i) {
    pool.add(probe_tuple(i % 8 + 1));
    if (dataplane::shard_of(probe_tuple(i % 8 + 1), 2) == 0) ++worker0_share;
  }
  ASSERT_GT(worker0_share, 0u);

  std::atomic<bool> thrown{false};
  dataplane::Engine engine(
      {.workers = 2,
       .batch_size = 16,
       .worker_fault_hook =
           [&](usize worker) {
             if (worker == 0 && !thrown.exchange(true)) {
               throw std::runtime_error("injected telemetry-test fault");
             }
           }},
      programs);
  const dataplane::EngineReport rep = engine.run(pool);
  ASSERT_EQ(rep.workers.size(), 2u);
  EXPECT_NE(rep.workers[0].error.find("injected"), std::string::npos);
  EXPECT_TRUE(rep.workers[1].error.empty());
  // Unsupervised, nothing finishes the dead worker's shard: it died
  // before its first claim, so its whole share is shed.
  EXPECT_TRUE(rep.conserved());
  EXPECT_EQ(rep.counters[EngineCounter::shed_packets], worker0_share);
  EXPECT_EQ(rep.counters[EngineCounter::lost_packets], 0u);
  EXPECT_EQ(rep.packets(), 64 - worker0_share);

  // The scenario report surfaces per-worker errors as a non-empty
  // `errors` array (exercised here through the JSON writer).
  ASSERT_EQ(rep.error_log.size(), 1u);
  workload::ScenarioResult r;
  r.name = "fault-injection";
  r.worker_errors.push_back(rep.error_log[0].line());
  r.error = r.worker_errors.front();
  std::ostringstream os;
  workload::write_json_report(os, {}, {r});
  EXPECT_NE(os.str().find("\"errors\":[\"worker 0 [restarts=0, permanent]: "
                          "injected telemetry-test fault\"]"),
            std::string::npos);
}

// ---- Exporters -------------------------------------------------------------

TEST(ChromeTrace, WritesParseableTracksPerWorker) {
  std::vector<TraceProcess> procs(2);
  procs[0].name = "scenario-a";
  for (u64 i = 0; i < 4; ++i) {
    TraceEvent e = make_event(i);
    e.worker = static_cast<u32>(i % 2);  // two tracks
    e.t_start_ns = 5000 + i * 1000;
    e.duration_ns = 500;
    procs[0].events.push_back(e);
  }
  procs[1].name = "scenario-b";
  procs[1].events.push_back(make_event(9));

  std::ostringstream os;
  write_chrome_trace(os, procs);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("scenario-a"), std::string::npos);
  EXPECT_NE(json.find("scenario-b"), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  // One "X" complete event per span.
  usize x_events = 0;
  for (usize pos = 0; (pos = json.find("\"ph\":\"X\"", pos)) !=
                      std::string::npos;
       ++pos) {
    ++x_events;
  }
  EXPECT_EQ(x_events, 5u);
  // Balanced braces/brackets (same well-formedness check the workload
  // report tests use).
  int depth = 0;
  for (char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(MetricsWriter, DeclaresEachMetricOnceAndEscapesLabels) {
  std::ostringstream os;
  {
    MetricsWriter m(os);
    using Label = MetricsWriter::Label;
    const std::array<Label, 1> a = {Label{"scenario", "acl-like"}};
    const std::array<Label, 1> b = {Label{"scenario", "weird\"name\\x\n"}};
    // Two families written across two label blocks, rows-inner as the
    // per-worker and per-scenario dumps do.
    m.counter("pclass_packets_total", "Packets processed", a, 100);
    m.gauge("pclass_mpps", "Throughput", a, 1.5);
    m.counter("pclass_packets_total", "Packets processed", b, 50);
    m.gauge("pclass_mpps", "Throughput", b, 2.5);
  }  // the writer's destructor writes the buffered families out
  const std::string text = os.str();
  // Each family is one contiguous group: its HELP, TYPE and samples,
  // with no line of the other family in between.
  for (const std::string family : {"pclass_packets_total", "pclass_mpps"}) {
    std::istringstream lines(text);
    std::string line;
    int groups = 0;
    bool in_family = false;
    while (std::getline(lines, line)) {
      const bool mine = line.starts_with(family + "{") ||
                        line.starts_with("# HELP " + family + " ") ||
                        line.starts_with("# TYPE " + family + " ");
      if (mine && !in_family) ++groups;
      in_family = mine;
    }
    EXPECT_EQ(groups, 1) << family << " is split:\n" << text;
  }
  // HELP/TYPE once, two samples.
  EXPECT_EQ(text.find("# HELP pclass_packets_total"),
            text.rfind("# HELP pclass_packets_total"));
  EXPECT_EQ(text.find("# TYPE pclass_packets_total"),
            text.rfind("# TYPE pclass_packets_total"));
  EXPECT_NE(text.find("{scenario=\"acl-like\"} 100"), std::string::npos);
  EXPECT_NE(text.find("weird\\\"name\\\\x\\n"), std::string::npos);
}

TEST(StatsSampler, StopIsIdempotentAndSafeBeforeStart) {
  {
    // Never started: stop() (twice) must be a no-op, not a join on a
    // non-existent thread or a bogus flush tick.
    StatsSampler sampler({}, 1, 0);
    sampler.stop();
    sampler.stop();
    EXPECT_TRUE(sampler.take_samples().empty());
  }
  {
    WorkerTelemetry tel(0);
    StatsSampler sampler({&tel}, 1, 0);
    sampler.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    // Two racing stop() callers (the daemon's signal path vs the
    // engine's own teardown): exactly one takes the final flush.
    std::thread racer([&] { sampler.stop(); });
    sampler.stop();
    racer.join();
    sampler.stop();  // and a late third call is still fine
    const auto samples = sampler.take_samples();
    for (const StatsSample& s : samples) {
      EXPECT_GT(s.interval_ns, 0u);  // zero-elapsed ticks are guarded
      EXPECT_TRUE(std::isfinite(s.mpps));
    }
  }
}

TEST(StatsSampler, SubscribersSeeEveryActiveRowIncludingFinalFlush) {
  dataplane::RuleProgramPublisher programs(small_config());
  for (u32 i = 0; i < 64; ++i) programs.apply(add_msg(i));
  dataplane::TrafficPool pool;
  for (u32 i = 0; i < 4096; ++i) pool.add(probe_tuple(i % 64));

  dataplane::Engine engine(
      {.workers = 2, .batch_size = 32, .loop = true, .stats_interval_ms = 2},
      programs);
  engine.start(pool);
  ASSERT_NE(engine.sampler(), nullptr);

  std::mutex mu;
  std::vector<StatsSample> rows;
  const u64 token = engine.sampler()->subscribe([&](const StatsSample& s) {
    std::lock_guard<std::mutex> lk(mu);
    rows.push_back(s);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  // Unsubscribing mid-run blocks out in-flight callbacks, after which
  // the captures may be torn down safely.
  engine.sampler()->unsubscribe(token);
  const usize rows_at_unsub = [&] {
    std::lock_guard<std::mutex> lk(mu);
    return rows.size();
  }();
  EXPECT_GT(rows_at_unsub, 0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));

  // Re-subscribe through to stop(): the final flush row must reach the
  // subscriber too (that is what lets `subscribe stats` clients see the
  // closing delta of a drained engine).
  const u64 token2 = engine.sampler()->subscribe([&](const StatsSample& s) {
    std::lock_guard<std::mutex> lk(mu);
    rows.push_back(s);
  });
  const usize before_stop = [&] {
    std::lock_guard<std::mutex> lk(mu);
    return rows.size();
  }();
  const dataplane::EngineReport rep = engine.stop();
  {
    std::lock_guard<std::mutex> lk(mu);
    EXPECT_GT(rows.size(), before_stop) << "final flush row not delivered";
    // Every delivered row is one of the report's timeseries rows, in
    // order (the subscriber feed is the series, not a parallel sum).
    usize cursor = 0;
    for (const StatsSample& r : rows) {
      while (cursor < rep.timeseries.size() &&
             rep.timeseries[cursor].t_ns != r.t_ns) {
        ++cursor;
      }
      ASSERT_LT(cursor, rep.timeseries.size()) << "row not found in series";
      EXPECT_TRUE(rep.timeseries[cursor].counters == r.counters);
      ++cursor;
    }
  }
  (void)token2;  // sampler is gone after stop(); nothing to unsubscribe
}

TEST(StatsSampler, TraceCaptureTeesWithoutDisturbingRetention) {
  dataplane::RuleProgramPublisher programs(small_config());
  for (u32 i = 0; i < 64; ++i) programs.apply(add_msg(i));
  dataplane::TrafficPool pool;
  for (u32 i = 0; i < 4096; ++i) pool.add(probe_tuple(i % 64));

  dataplane::Engine engine({.workers = 2,
                            .batch_size = 32,
                            .loop = true,
                            .stats_interval_ms = 2,
                            .collect_trace = true},
                           programs);
  engine.start(pool);
  StatsSampler* sampler = engine.sampler();
  ASSERT_NE(sampler, nullptr);

  EXPECT_FALSE(sampler->trace_capturing());
  sampler->trace_capture_start(/*limit=*/8);
  EXPECT_TRUE(sampler->trace_capturing());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  u64 truncated = 0;
  const std::vector<TraceEvent> captured =
      sampler->trace_capture_stop(&truncated);
  EXPECT_FALSE(sampler->trace_capturing());
  ASSERT_EQ(captured.size(), 8u);  // limit honored...
  EXPECT_GT(truncated, 0u);        // ...and the overflow is accounted
  for (const TraceEvent& e : captured) {
    EXPECT_LT(e.worker, 2u);
    EXPECT_GT(e.packets, 0u);
  }

  const dataplane::EngineReport rep = engine.stop();
  // The tee did not steal from the end-of-run retention path.
  EXPECT_GT(rep.trace_events.size(), captured.size());
}

}  // namespace
