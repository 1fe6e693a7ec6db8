#include "control/control_plane.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>

#include "baseline/linear_search.hpp"
#include "common/build_info.hpp"
#include "common/error.hpp"
#include "common/parse.hpp"
#include "telemetry/export.hpp"
#include "workload/json_writer.hpp"

namespace pclass::control {

using common::build_info;

namespace {

/// How often the visibility watcher re-reads the workers'
/// snapshot_version counters while updates are in flight. Latency
/// samples are upper bounds tight to this granularity.
constexpr auto kVisibilityPoll = std::chrono::microseconds(200);

u64 elapsed_clamped(u64 later_ns, u64 earlier_ns) {
  // Same steady clock on both stamps, but clamp anyway (and never
  // report a zero: the events are causally ordered, so a sub-tick
  // measurement still took *some* time).
  return later_ns > earlier_ns ? later_ns - earlier_ns : 1;
}

/// One NDJSON-serialized stats row (each `subscribe stats` push).
std::string format_stats_row(const telemetry::StatsSample& s) {
  std::ostringstream os;
  workload::JsonWriter w(os);
  telemetry::write_stats_sample(w, s);
  os << '\n';
  return os.str();
}

}  // namespace

/// Per-subscriber decimation window: sampler rows are merged exactly
/// (CounterSet::merge) and emitted once the client's requested interval
/// has elapsed, so a coarse subscriber of a fine sampler still sees rows
/// that merge to the totals. Shared-ptr owned by both the sampler callback and the
/// ControlPlane's map (whichever drops last frees it).
struct ControlPlane::SubState {
  u64 requested_ns = 0;
  std::function<void(const std::string&)> push;

  std::mutex mu;
  telemetry::StatsSample acc{};
  bool any = false;

  void merge_locked(const telemetry::StatsSample& s) {
    acc.t_ns = s.t_ns;
    acc.interval_ns += s.interval_ns;
    acc.counters.merge(s.counters);
    // Percentiles and versions are point-in-time: latest row wins.
    acc.p50_cycles = s.p50_cycles;
    acc.p99_cycles = s.p99_cycles;
    acc.min_version = s.min_version;
    any = true;
  }

  [[nodiscard]] telemetry::StatsSample take_locked() {
    telemetry::StatsSample out = acc;
    out.mpps = out.interval_ns == 0
                   ? 0.0
                   : static_cast<double>(
                         out.counters[telemetry::Counter::packets]) *
                         1e3 / static_cast<double>(out.interval_ns);
    acc = {};
    any = false;
    return out;
  }

  /// Sampler callback: accumulate; emit when the window filled. The 10%
  /// slack absorbs timer jitter (a 100ms tick often measures ~99.x ms).
  void add_row(const telemetry::StatsSample& s) {
    std::optional<telemetry::StatsSample> out;
    {
      std::lock_guard<std::mutex> lk(mu);
      merge_locked(s);
      if (acc.interval_ns + requested_ns / 10 >= requested_ns) {
        out = take_locked();
      }
    }
    if (out) push(format_stats_row(*out));
  }

  /// Emit whatever partial window remains (drain path).
  void flush() {
    std::optional<telemetry::StatsSample> out;
    {
      std::lock_guard<std::mutex> lk(mu);
      if (any) out = take_locked();
    }
    if (out) push(format_stats_row(*out));
  }
};

ControlPlane::ControlPlane(dataplane::Engine& engine,
                           dataplane::RuleProgramPublisher& publisher,
                           Options opts)
    : engine_(engine), publisher_(publisher), opts_(std::move(opts)) {
  tel_blocks_ = engine_.telemetry_blocks();
  t_attach_ns_ = telemetry::steady_now_ns();
  build_registry();
  vis_thread_ = std::thread([this] { visibility_loop(); });
}

ControlPlane::ControlPlane(dataplane::Engine& engine,
                           dataplane::RuleProgramPublisher& publisher)
    : ControlPlane(engine, publisher, Options{}) {}

ControlPlane::~ControlPlane() {
  {
    std::lock_guard<std::mutex> lk(vis_mu_);
    vis_stop_ = true;
  }
  vis_cv_.notify_all();
  if (vis_thread_.joinable()) vis_thread_.join();
}

SubscribeHooks ControlPlane::subscribe_hooks() {
  SubscribeHooks hooks;
  hooks.subscribe = [this](u64 interval_ms,
                           std::function<void(const std::string&)> push) {
    return subscribe_stats(interval_ms, std::move(push));
  };
  hooks.unsubscribe = [this](u64 token) { unsubscribe_stats(token); };
  return hooks;
}

// ---- registry -------------------------------------------------------------

void ControlPlane::build_registry() {
  registry_.add_read("version", [](std::span<const std::string>) {
    const auto& b = build_info();
    std::ostringstream os;
    workload::JsonWriter w(os);
    w.begin_object();
    w.key("version").value(b.version);
    w.key("git_sha").value(b.git_sha);
    w.key("compiler").value(b.compiler);
    w.key("build_type").value(b.build_type);
    w.end_object();
    os << '\n';
    return HandlerResult::with_payload(os.str());
  });

  registry_.add_read("handlers", [this](std::span<const std::string>) {
    std::string out = "read:";
    for (const auto& n : registry_.read_names()) out += " " + n;
    out += "\nwrite:";
    for (const auto& n : registry_.write_names()) out += " " + n;
    out += "\nother: subscribe stats <ms> | quit\n";
    return HandlerResult::with_payload(std::move(out));
  });

  registry_.add_read("stats", [this](std::span<const std::string>) {
    return HandlerResult::with_payload(stats_json());
  });

  registry_.add_read("metrics", [this](std::span<const std::string>) {
    return HandlerResult::with_payload(metrics_text());
  });

  registry_.add_read("timeseries", [this](std::span<const std::string>) {
    return HandlerResult::with_payload(timeseries_json());
  });

  registry_.add_read("verify", [this](std::span<const std::string>) {
    if (opts_.verify_trace == nullptr) {
      return HandlerResult::error(kConflict,
                                  "no verify trace attached to this daemon");
    }
    // Oracle re-classification against the *published* snapshot: pure
    // read side, no engine lock — a slow verify must not block stats
    // scrapes or updates.
    const auto snap = publisher_.acquire();
    const auto installed = snap->classifier().installed_rules();
    ruleset::RuleSet oracle_rules("oracle");
    for (const ruleset::Rule& rule : installed) {
      oracle_rules.add_verbatim(rule);
    }
    const baseline::LinearSearch oracle(oracle_rules);
    u64 checked = 0;
    u64 mismatches = 0;
    for (const auto& e : *opts_.verify_trace) {
      const auto res = snap->classifier().classify(e.header);
      const ruleset::Rule* want = oracle.classify(e.header, nullptr);
      const bool agree = want == nullptr
                             ? !res.match.has_value()
                             : res.match && res.match->rule == want->id;
      ++checked;
      if (!agree) ++mismatches;
    }
    std::ostringstream os;
    workload::JsonWriter w(os);
    w.begin_object();
    w.key("schema").value("pclass-verify-v1");
    w.key("snapshot_version").value(snap->version());
    w.key("rules").value(static_cast<u64>(snap->rule_count()));
    w.key("checked").value(checked);
    w.key("mismatches").value(mismatches);
    w.end_object();
    os << '\n';
    return HandlerResult::with_payload(os.str());
  });

  const auto apply_update = [this](const sdn::Message& msg, u64 t_cmd_ns) {
    std::lock_guard<std::mutex> lk(engine_mu_);
    if (drained_) {
      return HandlerResult::error(kConflict,
                                  "engine drained; updates no longer land");
    }
    publisher_.apply(msg);  // throws -> mapped by the dispatcher
    const u64 version = publisher_.version();
    note_socket_update(version, t_cmd_ns);
    updates_accepted_.fetch_add(1, std::memory_order_relaxed);
    return HandlerResult::ok(
        "version=" + std::to_string(version) +
        " rules=" + std::to_string(publisher_.acquire()->rule_count()));
  };

  registry_.add_write("rule", [apply_update](std::span<const std::string> args) {
    const u64 t_cmd = telemetry::steady_now_ns();
    return apply_update(parse_rule_command(args), t_cmd);
  });

  registry_.add_write("set", [apply_update](std::span<const std::string> args) {
    const u64 t_cmd = telemetry::steady_now_ns();
    return apply_update(parse_set_command(args), t_cmd);
  });

  registry_.add_write("trace", [this](std::span<const std::string> args) {
    if (args.empty()) {
      throw ParseError("trace: expected start|stop|dump <file>");
    }
    std::lock_guard<std::mutex> lk(engine_mu_);
    telemetry::StatsSampler* sampler = drained_ ? nullptr : engine_.sampler();
    const std::string& verb = args[0];
    if (verb == "start") {
      if (sampler == nullptr) {
        return HandlerResult::error(
            kConflict, "no sampler (drained, or --stats-interval-ms 0)");
      }
      usize limit = opts_.trace_capture_limit;
      if (args.size() == 2) {
        u64 v = 0;
        if (!pclass::parse_count(args[1], v)) {
          throw ParseError("trace start: bad event limit '" + args[1] + "'");
        }
        limit = static_cast<usize>(v);
      } else if (args.size() > 2) {
        throw ParseError("trace start: expected at most [limit]");
      }
      sampler->trace_capture_start(limit);
      return HandlerResult::ok("capturing limit=" + std::to_string(limit));
    }
    if (verb == "stop") {
      if (sampler == nullptr || !sampler->trace_capturing()) {
        return HandlerResult::error(kConflict, "not capturing");
      }
      u64 truncated = 0;
      auto events = sampler->trace_capture_stop(&truncated);
      std::lock_guard<std::mutex> tlk(trace_mu_);
      last_capture_ = std::move(events);
      last_capture_truncated_ = truncated;
      has_capture_ = true;
      return HandlerResult::ok(
          "events=" + std::to_string(last_capture_.size()) +
          " truncated=" + std::to_string(truncated));
    }
    if (verb == "dump") {
      if (args.size() != 2) {
        throw ParseError("trace dump: expected <file>");
      }
      // Dump implies stop: a running capture is taken first so the file
      // always reflects everything captured up to this request.
      if (sampler != nullptr && sampler->trace_capturing()) {
        u64 truncated = 0;
        auto events = sampler->trace_capture_stop(&truncated);
        std::lock_guard<std::mutex> tlk(trace_mu_);
        last_capture_ = std::move(events);
        last_capture_truncated_ = truncated;
        has_capture_ = true;
      }
      std::lock_guard<std::mutex> tlk(trace_mu_);
      if (!has_capture_) {
        return HandlerResult::error(kConflict,
                                    "no capture (run `write trace start` "
                                    "first)");
      }
      std::ofstream os(args[1], std::ios::binary | std::ios::trunc);
      if (!os) {
        return HandlerResult::error(kInternalError,
                                    "cannot open " + args[1]);
      }
      telemetry::TraceProcess proc;
      proc.name = "pclass_serve";
      proc.events = last_capture_;
      telemetry::write_chrome_trace(os, std::span(&proc, 1));
      os.flush();
      if (!os) {
        return HandlerResult::error(kInternalError,
                                    "short write to " + args[1]);
      }
      return HandlerResult::ok(
          "events=" + std::to_string(last_capture_.size()) +
          " truncated=" + std::to_string(last_capture_truncated_) +
          " file=" + args[1]);
    }
    throw ParseError("trace: unknown verb '" + verb + "'");
  });

  registry_.add_write("drain", [this](std::span<const std::string>) {
    const dataplane::EngineReport rep = drain();
    return HandlerResult::ok(
        "packets=" + std::to_string(rep.packets()) +
        " matched=" + std::to_string(rep.matched()) +
        " workers=" + std::to_string(rep.workers.size()));
  });

  registry_.add_write("shutdown", [this](std::span<const std::string>) {
    if (!opts_.request_shutdown) {
      return HandlerResult::error(kConflict,
                                  "no shutdown hook (test harness?)");
    }
    // Only signal — the daemon's main loop drains and tears the server
    // down; doing it here would self-deadlock on this very connection.
    opts_.request_shutdown();
    return HandlerResult::ok("shutting down");
  });
}

// ---- socket-to-dataplane visibility ---------------------------------------

void ControlPlane::note_socket_update(u64 version, u64 t_cmd_ns) {
  PendingUpdate p;
  p.version = version;
  p.t_cmd_ns = t_cmd_ns;
  // The PublishClock stamp was note()d just before the snapshot swap;
  // a recycled slot (update storm) falls back to the command time, so
  // publish_to_first degenerates to cmd_to_first rather than vanishing.
  p.t_publish_ns =
      publisher_.publish_clock().lookup(version).value_or(t_cmd_ns);
  {
    std::lock_guard<std::mutex> lk(vis_mu_);
    pending_.push_back(p);
  }
  vis_cv_.notify_all();
}

std::pair<u64, u64> ControlPlane::worker_versions() const {
  if (tel_blocks_.empty()) return {0, 0};
  u64 min_v = 0;
  u64 max_v = 0;
  bool first = true;
  for (const auto* t : tel_blocks_) {
    const u64 v = t->live.get(telemetry::Counter::snapshot_version);
    max_v = std::max(max_v, v);
    min_v = first ? v : std::min(min_v, v);
    first = false;
  }
  return {min_v, max_v};
}

void ControlPlane::visibility_pass() {
  const auto [min_v, max_v] = worker_versions();
  const u64 now = telemetry::steady_now_ns();
  std::lock_guard<std::mutex> lk(vis_mu_);
  for (auto& p : pending_) {
    if (p.t_first_ns == 0 && max_v >= p.version) p.t_first_ns = now;
  }
  // A worker still at version 0 never classified a batch: min_v == 0
  // blocks full resolution (conservative — "all workers" means all).
  while (!pending_.empty() && min_v >= pending_.front().version &&
         min_v != 0) {
    PendingUpdate p = pending_.front();
    pending_.pop_front();
    if (p.t_first_ns == 0) p.t_first_ns = now;
    const u64 cmd_first = elapsed_clamped(p.t_first_ns, p.t_cmd_ns);
    const u64 cmd_all = elapsed_clamped(now, p.t_cmd_ns);
    const u64 pub_first = elapsed_clamped(p.t_first_ns, p.t_publish_ns);
    ++vis_samples_;
    cmd_first_total_ns_ += cmd_first;
    cmd_first_max_ns_ = std::max(cmd_first_max_ns_, cmd_first);
    cmd_all_total_ns_ += cmd_all;
    cmd_all_max_ns_ = std::max(cmd_all_max_ns_, cmd_all);
    pub_first_total_ns_ += pub_first;
    pub_first_max_ns_ = std::max(pub_first_max_ns_, pub_first);
  }
}

void ControlPlane::visibility_loop() {
  std::unique_lock<std::mutex> lk(vis_mu_);
  while (!vis_stop_) {
    if (pending_.empty()) {
      vis_cv_.wait(lk, [this] { return vis_stop_ || !pending_.empty(); });
      continue;
    }
    lk.unlock();
    visibility_pass();
    std::this_thread::sleep_for(kVisibilityPoll);
    lk.lock();
  }
}

SocketVisibility ControlPlane::socket_visibility() const {
  std::lock_guard<std::mutex> lk(vis_mu_);
  SocketVisibility v;
  v.samples = vis_samples_;
  if (vis_samples_ > 0) {
    const auto n = static_cast<double>(vis_samples_);
    v.cmd_to_first_mean_ns = static_cast<double>(cmd_first_total_ns_) / n;
    v.cmd_to_all_mean_ns = static_cast<double>(cmd_all_total_ns_) / n;
    v.publish_to_first_mean_ns = static_cast<double>(pub_first_total_ns_) / n;
  }
  v.cmd_to_first_max_ns = cmd_first_max_ns_;
  v.cmd_to_all_max_ns = cmd_all_max_ns_;
  v.publish_to_first_max_ns = pub_first_max_ns_;
  v.pending = pending_.size();
  v.unresolved = vis_unresolved_;
  return v;
}

// ---- streaming subscriptions ----------------------------------------------

u64 ControlPlane::subscribe_stats(
    u64 interval_ms, std::function<void(const std::string&)> push_row) {
  std::lock_guard<std::mutex> lk(engine_mu_);
  telemetry::StatsSampler* sampler = drained_ ? nullptr : engine_.sampler();
  if (sampler == nullptr) return 0;
  auto st = std::make_shared<SubState>();
  st->requested_ns = interval_ms * 1'000'000;
  st->push = std::move(push_row);
  const u64 token = sampler->subscribe(
      [st](const telemetry::StatsSample& s) { st->add_row(s); });
  std::lock_guard<std::mutex> slk(subs_mu_);
  subs_[token] = std::move(st);
  return token;
}

void ControlPlane::unsubscribe_stats(u64 token) {
  if (token == 0) return;
  {
    std::lock_guard<std::mutex> lk(engine_mu_);
    if (!drained_) {
      if (auto* sampler = engine_.sampler()) sampler->unsubscribe(token);
    }
  }
  std::lock_guard<std::mutex> slk(subs_mu_);
  subs_.erase(token);
}

// ---- drain ----------------------------------------------------------------

dataplane::EngineReport ControlPlane::drain() {
  std::lock_guard<std::mutex> lk(engine_mu_);
  if (!drained_) {
    // stop() joins the workers and takes the sampler's final flush tick
    // (subscribers see their last full rows through that path).
    final_report_ = engine_.stop();
    drained_ = true;
    // One last resolution pass against the workers' final (frozen)
    // versions, then the remainder is abandoned: nothing will ever
    // classify on those versions now.
    visibility_pass();
    {
      std::lock_guard<std::mutex> vlk(vis_mu_);
      vis_unresolved_ += pending_.size();
      pending_.clear();
    }
    // Flush partial decimation windows so coarse subscribers' rows
    // still sum to the totals.
    std::vector<std::shared_ptr<SubState>> subs;
    {
      std::lock_guard<std::mutex> slk(subs_mu_);
      subs.reserve(subs_.size());
      for (const auto& [token, st] : subs_) subs.push_back(st);
    }
    for (const auto& st : subs) st->flush();
  }
  return final_report_;
}

// ---- payload builders -----------------------------------------------------

std::string ControlPlane::stats_json() {
  std::lock_guard<std::mutex> lk(engine_mu_);
  const u64 now = telemetry::steady_now_ns();
  const auto& b = build_info();
  const auto& pstats = publisher_.stats();
  const SocketVisibility sv = socket_visibility();

  std::ostringstream os;
  workload::JsonWriter w(os);
  w.begin_object();
  w.key("schema").value("pclass-live-stats-v1");
  w.key("uptime_ns").value(now - t_attach_ns_);
  w.key("engine_running").value(engine_.running());
  w.key("drained").value(drained_);
  w.key("build").begin_object();
  w.key("version").value(b.version);
  w.key("git_sha").value(b.git_sha);
  w.key("compiler").value(b.compiler);
  w.key("build_type").value(b.build_type);
  w.end_object();

  w.key("publisher").begin_object();
  w.key("version").value(publisher_.version());
  w.key("rules").value(static_cast<u64>(publisher_.acquire()->rule_count()));
  w.key("updates_applied").value(pstats.updates_applied);
  w.key("publishes").value(pstats.publishes);
  w.key("grace_spins").value(pstats.grace_spins);
  w.end_object();

  // Engine geometry: with shards > 0 the rows below are per *shard*
  // (telemetry blocks are per shard — a worker thread may drive
  // several), with `worker` carrying the shard index.
  const dataplane::EngineConfig& ecfg = engine_.config();
  w.key("engine").begin_object();
  w.key("workers").value(ecfg.workers);
  w.key("shards").value(ecfg.shards);
  w.key("steer_symmetric").value(ecfg.steer_symmetric);
  w.end_object();

  // Supervisor rollup (all-zero when the supervisor is off): live reads
  // of the watchdog's counters, scrapeable mid-run.
  const dataplane::SupervisorStatus ss = engine_.supervisor_status();
  w.key("supervisor").begin_object();
  w.key("enabled").value(ss.enabled);
  w.key("worker_restarts").value(ss.worker_restarts);
  w.key("stall_detections").value(ss.stall_detections);
  w.key("shards_reassigned").value(ss.shards_reassigned);
  w.key("workers_failed").value(ss.workers_failed);
  w.end_object();

  // Per-worker running totals straight off the live atomics, plus the
  // engine-wide merge the CI reconcile compares against report totals.
  telemetry::CounterSet totals;
  w.key("workers").begin_array();
  for (const auto* t : tel_blocks_) {
    const telemetry::CounterSet c = t->live.snapshot();
    totals.merge(c);
    w.begin_object();
    w.key("worker").value(static_cast<u64>(t->worker));
    telemetry::write_counters(w, c);
    w.end_object();
  }
  w.end_array();

  w.key("totals").begin_object();
  telemetry::write_counters(w, totals);
  w.end_object();

  telemetry::write_update_visibility(w, totals);

  w.key("socket_visibility").begin_object();
  w.key("samples").value(sv.samples);
  w.key("cmd_to_first_mean_ns").value(sv.cmd_to_first_mean_ns);
  w.key("cmd_to_first_max_ns").value(sv.cmd_to_first_max_ns);
  w.key("cmd_to_all_mean_ns").value(sv.cmd_to_all_mean_ns);
  w.key("cmd_to_all_max_ns").value(sv.cmd_to_all_max_ns);
  w.key("publish_to_first_mean_ns").value(sv.publish_to_first_mean_ns);
  w.key("publish_to_first_max_ns").value(sv.publish_to_first_max_ns);
  w.key("pending").value(sv.pending);
  w.key("unresolved").value(sv.unresolved);
  w.end_object();

  w.key("updates_accepted")
      .value(updates_accepted_.load(std::memory_order_relaxed));
  w.end_object();
  os << '\n';
  return os.str();
}

std::string ControlPlane::metrics_text() {
  std::lock_guard<std::mutex> lk(engine_mu_);
  const u64 now = telemetry::steady_now_ns();
  const auto& b = build_info();
  const auto& pstats = publisher_.stats();
  const SocketVisibility sv = socket_visibility();

  std::ostringstream os;
  telemetry::MetricsWriter mw(os);
  using Label = telemetry::MetricsWriter::Label;

  {
    const Label labels[] = {{"version", b.version},
                            {"git_sha", b.git_sha},
                            {"build_type", b.build_type}};
    mw.gauge("pclass_build_info",
             "Build metadata as labels; value is always 1.", labels, 1.0);
  }
  mw.gauge("pclass_serve_uptime_seconds",
           "Seconds since the control plane attached.", {},
           static_cast<double>(now - t_attach_ns_) / 1e9);
  mw.gauge("pclass_serve_engine_running",
           "1 while the engine loop is running, 0 after drain.", {},
           engine_.running() ? 1.0 : 0.0);

  for (const auto* t : tel_blocks_) {
    const std::string worker = std::to_string(t->worker);
    const Label labels[] = {{"worker", worker}};
    telemetry::write_counter_metrics(mw, "pclass_live_", labels,
                                     t->live.snapshot());
  }

  mw.gauge("pclass_publisher_version", "Published rule-program version.", {},
           static_cast<double>(publisher_.version()));
  mw.gauge("pclass_publisher_rules", "Rules in the published snapshot.", {},
           static_cast<double>(publisher_.acquire()->rule_count()));
  mw.counter("pclass_publisher_updates_applied_total",
             "Southbound updates accepted into the log.", {},
             static_cast<double>(pstats.updates_applied));
  mw.counter("pclass_publisher_publishes_total", "Snapshot swaps.", {},
             static_cast<double>(pstats.publishes));
  mw.counter("pclass_publisher_grace_spins_total",
             "Yields spent waiting for readers to drain.", {},
             static_cast<double>(pstats.grace_spins));

  {
    const dataplane::SupervisorStatus ss = engine_.supervisor_status();
    mw.gauge("pclass_supervisor_enabled",
             "1 when the engine watchdog supervises workers.", {},
             ss.enabled ? 1.0 : 0.0);
    mw.counter("pclass_supervisor_worker_restarts_total",
               "Dead workers respawned by the watchdog.", {},
               static_cast<double>(ss.worker_restarts));
    mw.counter("pclass_supervisor_stall_detections_total",
               "Heartbeat-stall episodes the watchdog observed.", {},
               static_cast<double>(ss.stall_detections));
    mw.counter("pclass_supervisor_shards_reassigned_total",
               "Shards taken over from permanently failed workers.", {},
               static_cast<double>(ss.shards_reassigned));
    mw.gauge("pclass_supervisor_workers_failed",
             "Workers permanently failed (restart budget spent).", {},
             static_cast<double>(ss.workers_failed));
  }

  mw.counter("pclass_socket_updates_accepted_total",
             "Rule/set updates accepted over the control socket.", {},
             static_cast<double>(
                 updates_accepted_.load(std::memory_order_relaxed)));
  mw.counter("pclass_socket_visibility_samples_total",
             "Socket updates whose dataplane visibility fully resolved.", {},
             static_cast<double>(sv.samples));
  mw.gauge("pclass_socket_visibility_cmd_to_first_mean_ns",
           "Mean ns from command parse to first worker on the new version.",
           {}, sv.cmd_to_first_mean_ns);
  mw.gauge("pclass_socket_visibility_cmd_to_all_mean_ns",
           "Mean ns from command parse to every worker on the new version.",
           {}, sv.cmd_to_all_mean_ns);
  mw.gauge("pclass_socket_visibility_cmd_to_all_max_ns",
           "Worst-case ns from command parse to every worker.", {},
           static_cast<double>(sv.cmd_to_all_max_ns));
  mw.gauge("pclass_socket_visibility_pending",
           "Socket updates not yet seen by every worker.", {},
           static_cast<double>(sv.pending));

  mw.flush();
  return os.str();
}

std::string ControlPlane::timeseries_json() {
  std::lock_guard<std::mutex> lk(engine_mu_);
  std::vector<telemetry::StatsSample> rows;
  if (drained_) {
    rows = final_report_.timeseries;
  } else if (auto* sampler = engine_.sampler()) {
    rows = sampler->samples_snapshot();
  }
  std::ostringstream os;
  workload::JsonWriter w(os);
  w.begin_object();
  w.key("schema").value("pclass-live-timeseries-v1");
  w.key("drained").value(drained_);
  w.key("rows").begin_array();
  for (const auto& s : rows) telemetry::write_stats_sample(w, s);
  w.end_array();
  w.end_object();
  os << '\n';
  return os.str();
}

void write_serve_report(std::ostream& os, const dataplane::EngineReport& rep,
                        const ControlPlane& cp, const ControlServer& server) {
  const auto& build = build_info();
  const SocketVisibility sv = cp.socket_visibility();
  const telemetry::CounterSet totals =
      dataplane::merge_reports(0, rep.workers).counters;
  workload::JsonWriter j(os);
  j.begin_object();
  j.key("schema").value("pclass-serve-v1");
  j.key("meta").begin_object();
  j.key("build").begin_object();
  j.key("version").value(build.version);
  j.key("git_sha").value(build.git_sha);
  j.key("compiler").value(build.compiler);
  j.key("build_type").value(build.build_type);
  j.end_object();
  j.end_object();
  j.key("endpoint").value(server.endpoint());
  j.key("wall_seconds").value(rep.wall_seconds);

  j.key("counters");
  telemetry::write_counter_table(j);

  j.key("workers").begin_array();
  for (const auto& w : rep.workers) {
    j.begin_object();
    j.key("worker").value(static_cast<u64>(w.worker));
    telemetry::write_counters(j, w.counters);
    j.key("mpps").value(w.mpps());
    j.key("p50_cycles").value(w.latency.percentile(50));
    j.key("p99_cycles").value(w.latency.percentile(99));
    if (!w.error.empty()) j.key("error").value(w.error);
    j.end_object();
  }
  j.end_array();

  // Raw per-shard rows (empty unsharded); workers[] above stays the
  // authoritative double-count-free view.
  j.key("shards").begin_array();
  for (const auto& s : rep.shards) {
    j.begin_object();
    j.key("shard").value(static_cast<u64>(s.worker));
    telemetry::write_counters(j, s.counters);
    j.key("p50_cycles").value(s.latency.percentile(50));
    j.key("p99_cycles").value(s.latency.percentile(99));
    j.end_object();
  }
  j.end_array();

  j.key("totals").begin_object();
  telemetry::write_counters(j, totals);
  j.key("aggregate_mpps").value(rep.aggregate_mpps());
  j.end_object();

  telemetry::write_update_visibility(j, totals);

  j.key("socket").begin_object();
  j.key("updates_accepted").value(cp.updates_accepted());
  j.key("connections_accepted").value(server.connections_accepted());
  j.key("connections_rejected").value(server.connections_rejected());
  j.key("requests_served").value(server.requests_served());
  j.key("visibility").begin_object();
  j.key("samples").value(sv.samples);
  j.key("cmd_to_first_mean_ns").value(sv.cmd_to_first_mean_ns);
  j.key("cmd_to_first_max_ns").value(sv.cmd_to_first_max_ns);
  j.key("cmd_to_all_mean_ns").value(sv.cmd_to_all_mean_ns);
  j.key("cmd_to_all_max_ns").value(sv.cmd_to_all_max_ns);
  j.key("publish_to_first_mean_ns").value(sv.publish_to_first_mean_ns);
  j.key("publish_to_first_max_ns").value(sv.publish_to_first_max_ns);
  j.key("pending").value(sv.pending);
  j.key("unresolved").value(sv.unresolved);
  j.end_object();
  j.end_object();

  j.key("supervisor").begin_object();
  j.key("worker_restarts").value(rep.worker_restarts);
  j.key("stall_detections").value(rep.stall_detections);
  j.key("shards_reassigned").value(rep.shards_reassigned);
  j.key("workers_failed").value(rep.workers_failed);
  j.end_object();

  j.key("errors").begin_array();
  for (const auto& d : rep.error_log) {
    j.begin_object();
    j.key("worker").value(static_cast<u64>(d.worker));
    j.key("restarts").value(d.restarts);
    j.key("permanent").value(d.permanent);
    j.key("message").value(d.message);
    j.end_object();
  }
  j.end_array();

  j.key("timeseries").begin_array();
  for (const auto& s : rep.timeseries) telemetry::write_stats_sample(j, s);
  j.end_array();
  j.end_object();
  os << "\n";
}

}  // namespace pclass::control
