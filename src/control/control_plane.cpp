#include "control/control_plane.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>

#include "common/build_info.hpp"
#include "common/error.hpp"
#include "common/parse.hpp"
#include "telemetry/export.hpp"
#include "workload/json_writer.hpp"

namespace pclass::control {

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
    std::ostringstream os;
    workload::JsonWriter w(os);
    w.begin_object();
    common::write_build_fields(w);
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
    const dataplane::OracleCheck c = dataplane::check_against_oracle(
        snap->classifier(), *opts_.verify_trace);
    std::ostringstream os;
    workload::JsonWriter w(os);
    w.begin_object();
    w.key("schema").value("pclass-verify-v1");
    w.key("snapshot_version").value(snap->version());
    w.key("rules").value(static_cast<u64>(snap->rule_count()));
    w.key("checked").value(c.checked);
    w.key("mismatches").value(c.mismatches);
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
    if (verb == "stop" || verb == "dump") {
      if (verb == "dump" && args.size() != 2) {
        throw ParseError("trace dump: expected <file>");
      }
      // Dump implies stop: a running capture is taken first so the file
      // always reflects everything captured up to this request.
      const bool capturing = sampler != nullptr && sampler->trace_capturing();
      if (verb == "stop" && !capturing) {
        return HandlerResult::error(kConflict, "not capturing");
      }
      std::lock_guard<std::mutex> tlk(trace_mu_);
      if (capturing) {
        last_capture_ = sampler->trace_capture_stop(&last_capture_truncated_);
        has_capture_ = true;
      }
      const std::string counts =
          "events=" + std::to_string(last_capture_.size()) +
          " truncated=" + std::to_string(last_capture_truncated_);
      if (verb == "stop") return HandlerResult::ok(counts);
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
      return HandlerResult::ok(counts + " file=" + args[1]);
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
    ++socket_[telemetry::SocketCounter::updates_accepted];
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
    // One resolved update, folded in by the table's merge rules.
    using telemetry::SocketCounter;
    const u64 cmd_first = elapsed_clamped(p.t_first_ns, p.t_cmd_ns);
    const u64 cmd_all = elapsed_clamped(now, p.t_cmd_ns);
    const u64 pub_first = elapsed_clamped(p.t_first_ns, p.t_publish_ns);
    telemetry::SocketCounterSet one;
    one.set(SocketCounter::visibility_samples, 1);
    one.set(SocketCounter::cmd_to_first_total_ns, cmd_first);
    one.set(SocketCounter::cmd_to_first_max_ns, cmd_first);
    one.set(SocketCounter::cmd_to_all_total_ns, cmd_all);
    one.set(SocketCounter::cmd_to_all_max_ns, cmd_all);
    one.set(SocketCounter::publish_to_first_total_ns, pub_first);
    one.set(SocketCounter::publish_to_first_max_ns, pub_first);
    socket_.merge(one);
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

void ControlPlane::fill_counters(telemetry::SocketCounterSet& out) const {
  std::lock_guard<std::mutex> lk(vis_mu_);
  out = socket_;
  out.set(telemetry::SocketCounter::visibility_pending, pending_.size());
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
      socket_[telemetry::SocketCounter::visibility_unresolved] +=
          pending_.size();
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

  std::ostringstream os;
  workload::JsonWriter w(os);
  w.begin_object();
  w.key("schema").value("pclass-live-stats-v3");
  w.key("uptime_ns").value(now - t_attach_ns_);
  w.key("engine_running").value(engine_.running());
  w.key("drained").value(drained_);
  w.key("build").begin_object();
  common::write_build_fields(w);
  w.end_object();

  telemetry::PublisherCounterSet pub;
  publisher_.fill_counters(pub);
  telemetry::write_counter_object(w, "publisher", pub);

  // Engine geometry and every engine row, live (the supervisor rows
  // stay zero when the supervisor is off). The worker rows below are
  // per *shard* (telemetry blocks are per shard — after a takeover a
  // worker thread drives several), with `worker` carrying the shard
  // index.
  const dataplane::EngineConfig& ecfg = engine_.config();
  w.key("engine").begin_object();
  w.key("workers").value(ecfg.workers);
  w.key("supervisor").value(ecfg.supervisor.enabled);
  telemetry::write_counters(w, engine_.counters());
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

  telemetry::write_counter_object(w, "totals", totals);

  telemetry::write_update_visibility(w, totals);

  telemetry::SocketCounterSet sock;
  fill_counters(sock);
  telemetry::write_counter_object(w, "socket", sock);
  w.end_object();
  os << '\n';
  return os.str();
}

std::string ControlPlane::metrics_text() {
  std::lock_guard<std::mutex> lk(engine_mu_);
  const u64 now = telemetry::steady_now_ns();
  telemetry::PublisherCounterSet pub;
  publisher_.fill_counters(pub);
  telemetry::SocketCounterSet sock;
  fill_counters(sock);

  std::ostringstream os;
  telemetry::MetricsWriter mw(os);
  using Label = telemetry::MetricsWriter::Label;

  telemetry::write_build_info(mw);
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

  telemetry::write_counter_metrics(mw, "pclass_publisher_", {}, pub);

  mw.gauge("pclass_supervisor_enabled",
           "1 when the engine watchdog supervises workers.", {},
           engine_.config().supervisor.enabled ? 1.0 : 0.0);
  telemetry::write_counter_metrics(mw, "pclass_", {}, engine_.counters());

  telemetry::write_counter_metrics(mw, "pclass_socket_", {}, sock);

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
  const telemetry::CounterSet totals =
      dataplane::merge_reports(0, rep.workers).counters;
  workload::JsonWriter j(os);
  j.begin_object();
  j.key("schema").value("pclass-serve-v3");
  j.key("meta").begin_object();
  j.key("build").begin_object();
  common::write_build_fields(j);
  j.end_object();
  j.end_object();
  j.key("endpoint").value(server.endpoint());
  j.key("wall_seconds").value(rep.wall_seconds);

  telemetry::write_counter_table(j.key("counters"), telemetry::kCounters);
  telemetry::write_counter_table(j.key("engine_counters"),
                                 telemetry::kEngineCounters);
  telemetry::write_counter_table(j.key("publisher_counters"),
                                 telemetry::kPublisherCounters);
  telemetry::write_counter_table(j.key("socket_counters"),
                                 telemetry::kSocketCounters);

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

  // Raw per-shard rows; workers[] above merges them per driving thread.
  dataplane::write_shard_rows(j, rep.shards);

  j.key("totals").begin_object();
  telemetry::write_counters(j, totals);
  j.key("aggregate_mpps").value(rep.aggregate_mpps());
  j.end_object();

  telemetry::write_update_visibility(j, totals);

  telemetry::PublisherCounterSet pub;
  cp.publisher().fill_counters(pub);
  telemetry::write_counter_object(j, "publisher", pub);

  telemetry::SocketCounterSet sock;
  cp.fill_counters(sock);
  j.key("socket").begin_object();
  telemetry::write_counters(j, sock);
  j.key("connections_accepted").value(server.connections_accepted());
  j.key("connections_rejected").value(server.connections_rejected());
  j.key("requests_served").value(server.requests_served());
  j.end_object();

  telemetry::write_counter_object(j, "engine", rep.counters);

  j.key("errors").begin_array();
  for (const auto& d : rep.error_log) j.value(d.line());
  j.end_array();

  j.key("timeseries").begin_array();
  for (const auto& s : rep.timeseries) telemetry::write_stats_sample(j, s);
  j.end_array();
  j.end_object();
  os << "\n";
}

}  // namespace pclass::control
