#include "dataplane/engine.hpp"

#include <chrono>

namespace pclass::dataplane {

using telemetry::EngineCounter;

namespace {
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Drained spans kept for the export with collect_trace (a loop-mode run
/// makes millions; chrome://tracing chokes far earlier). The rest still
/// drain and count in the trace_events_truncated engine row.
constexpr usize kTraceKeepLimit = usize{1} << 15;
}  // namespace

// ---- Engine ---------------------------------------------------------------

Engine::Engine(EngineConfig cfg, const RuleProgramPublisher& programs)
    : cfg_(std::move(cfg)), programs_(programs) {
  if (cfg_.workers == 0) {
    throw ConfigError("Engine: workers must be >= 1");
  }
  if (cfg_.batch_size == 0) {
    throw ConfigError("Engine: batch_size must be >= 1");
  }
}

Engine::~Engine() {
  if (running_) {
    stop();
  }
}

Engine::Shard::Shard(usize s, TrafficPool* borrowed, TrafficPool steered,
                     const EngineConfig& cfg,
                     const RuleProgramPublisher& programs,
                     telemetry::WorkerTelemetry* tel)
    : index(s),
      owner(s),
      pool(std::move(steered)),
      active_pool(borrowed != nullptr ? borrowed : &pool),
      source(active_pool, cfg.loop),
      parser(tel),
      cache(cfg.flow_cache_depth == 0
                ? std::nullopt
                : std::make_optional<FlowCacheElement>(
                      &programs, cfg.flow_cache_depth,
                      "shard" + std::to_string(s) + ".flow_cache", tel)),
      classifier(&programs, cache ? &*cache : nullptr, tel),
      sink(tel, cfg.capture_verdicts ? &captured : nullptr) {}

void Engine::start(TrafficPool& pool) {
  if (running_) {
    throw ConfigError("Engine: start() while already running");
  }
  if (cfg_.capture_verdicts && cfg_.loop) {
    throw ConfigError("Engine: capture_verdicts requires a finite pool");
  }
  const usize nworkers = cfg_.workers;
  if (cfg_.fault_injector != nullptr) {
    // A worker event aimed past the last thread would never fire.
    for (const fault::FaultEvent& e : cfg_.fault_injector->plan().events) {
      const bool worker_event = e.kind == fault::FaultKind::kWorkerThrow ||
                                e.kind == fault::FaultKind::kWorkerStall;
      if (worker_event && e.worker >= nworkers) {
        throw ConfigError("Engine: fault event " + e.to_string() +
                          " targets worker " + std::to_string(e.worker) +
                          ", but the engine runs " +
                          std::to_string(nworkers) + " worker threads");
      }
    }
  }
  stop_.store(false, std::memory_order_relaxed);
  shards_.clear();
  threads_.clear();
  tel_.clear();
  sampler_.reset();
  timeseries_.clear();
  trace_events_.clear();
  final_drained_ = false;
  watchdog_stop_.store(false, std::memory_order_relaxed);
  run_concluded_.store(false, std::memory_order_relaxed);
  counters_.clear();
  conservation_checked_ = false;
  if (cfg_.fault_injector != nullptr) {
    // Injected stalls must not outlive a drain: abort them on stop_.
    cfg_.fault_injector->set_abort_flag(&stop_);
  }

  // The RSS stage: split the caller's pool into per-flow consistent
  // slices before any worker starts (the software analogue of the NIC
  // hashing into receive queues). A split into one slice is the
  // identity, so a one-worker engine drains the caller's pool in place.
  std::vector<TrafficPool> steered;
  if (nworkers > 1) {
    steered = steer_split(pool, nworkers);
  }

  for (usize s = 0; s < nworkers; ++s) {
    telemetry::WorkerTelemetry* tel = nullptr;
    if (cfg_.telemetry) {
      tel_.push_back(
          std::make_unique<telemetry::WorkerTelemetry>(static_cast<u32>(s)));
      tel = tel_.back().get();
    }
    auto sh = std::make_unique<Shard>(
        s, steered.empty() ? &pool : nullptr,
        steered.empty() ? TrafficPool() : std::move(steered[s]), cfg_,
        programs_, tel);
    auto w = std::make_unique<WorkerThread>();
    w->index = s;
    w->shards.push_back(sh.get());
    shards_.push_back(std::move(sh));
    threads_.push_back(std::move(w));
  }
  if (cfg_.telemetry && cfg_.stats_interval_ms > 0) {
    std::vector<telemetry::WorkerTelemetry*> blocks;
    blocks.reserve(tel_.size());
    for (const auto& t : tel_) blocks.push_back(t.get());
    sampler_ = std::make_unique<telemetry::StatsSampler>(
        std::move(blocks), cfg_.stats_interval_ms, trace_keep());
    sampler_->start();
  }
  start_time_ = Clock::now();
  try {
    for (auto& w : threads_) {
      spawn_worker(*w);
    }
    if (cfg_.supervisor.enabled) {
      watchdog_ = std::thread([this] { watchdog_main(); });
    }
  } catch (...) {
    // Thread construction failed part-way (e.g. an absurd worker
    // count): join what launched, or their destructors terminate us.
    stop_.store(true, std::memory_order_relaxed);
    watchdog_stop_.store(true, std::memory_order_relaxed);
    if (watchdog_.joinable()) watchdog_.join();
    for (auto& w : threads_) {
      if (w->thread.joinable()) w->thread.join();
    }
    threads_.clear();
    shards_.clear();
    throw;
  }
  running_ = true;
  wall_seconds_ = 0;
}

void Engine::spawn_worker(WorkerThread& w) {
  w.exited.store(false, std::memory_order_release);
  w.thread = std::thread([this, &w] {
    try {
      worker_main(w);
    } catch (const std::exception& e) {
      // An escaping exception would std::terminate the process;
      // capture it for the report instead.
      w.error = e.what();
    }
    // Wall clock runs from engine start to this incarnation's exit.
    w.wall_seconds = seconds_since(start_time_);
    w.exited.store(true, std::memory_order_release);
  });
}

void Engine::worker_main(WorkerThread& w) {
  net::PacketBatch batch(cfg_.batch_size);
  // Round-robin over the thread's shards (its own, plus any a takeover
  // handed it): one batch per live shard per sweep, so co-located shards
  // progress at the same batch cadence; a shard whose (finite or empty)
  // pool ran dry drops out of the sweep.
  // The shard list can change under us (the supervisor's watchdog hands
  // a failed worker's shards over), so copy it per sweep under the
  // lock; progress ticks the heartbeat the watchdog's stall detector
  // reads, and the persistent sweep counter drives the injector even
  // across restarts. Shard::drained is the piece of "which packets are
  // already delivered" that must survive this thread dying.
  std::vector<Shard*> mine;
  while (!stop_.load(std::memory_order_relaxed)) {
    {
      std::lock_guard<std::mutex> lk(w.mu);
      mine.assign(w.shards.begin(), w.shards.end());
    }
    w.heartbeat.fetch_add(1, std::memory_order_relaxed);
    const u64 sweep = w.sweeps.fetch_add(1, std::memory_order_relaxed);
    if (cfg_.worker_fault_hook) {
      cfg_.worker_fault_hook(w.index);
    }
    if (cfg_.fault_injector != nullptr) {
      cfg_.fault_injector->on_worker_batch(w.index, sweep);
    }
    usize live = 0;
    for (Shard* sp : mine) {
      if (sp->drained.load(std::memory_order_acquire)) continue;
      if (push_chain(batch, &sp->source, sp->parser,
                     sp->cache ? &*sp->cache : nullptr, sp->classifier,
                     sp->sink)) {
        ++live;
      } else {
        sp->drained.store(true, std::memory_order_release);
      }
    }
    if (live == 0) break;
  }
}

bool Engine::has_undrained(const WorkerThread& w) {
  std::lock_guard<std::mutex> lk(w.mu);
  for (const Shard* sh : w.shards) {
    if (!sh->drained.load(std::memory_order_acquire)) return true;
  }
  return false;
}

void Engine::take_over_shards(WorkerThread& w) {
  // Called by the watchdog with w's thread already joined — the old
  // owner is gone, so moving its shards preserves the one-writer-per-
  // shard telemetry invariant.
  std::vector<Shard*> undrained;
  {
    std::lock_guard<std::mutex> lk(w.mu);
    auto& v = w.shards;
    for (auto it = v.begin(); it != v.end();) {
      if (!(*it)->drained.load(std::memory_order_acquire)) {
        undrained.push_back(*it);
        it = v.erase(it);
      } else {
        ++it;
      }
    }
  }
  if (undrained.empty()) return;
  // Shards are independent steered slices, so any survivor can finish
  // them.
  WorkerThread* survivor = nullptr;
  for (auto& other : threads_) {
    if (other.get() == &w) continue;
    if (other->failed_permanently.load(std::memory_order_relaxed)) continue;
    survivor = other.get();
    break;
  }
  if (survivor == nullptr) {
    std::lock_guard<std::mutex> lk(w.mu);
    w.shards.insert(w.shards.end(), undrained.begin(), undrained.end());
    w.shards_lost = undrained.size();
    return;
  }
  {
    std::scoped_lock lk(w.mu, survivor->mu);
    for (Shard* sh : undrained) {
      sh->owner = survivor->index;
      survivor->shards.push_back(sh);
    }
  }
  counters_.add(EngineCounter::shards_reassigned, undrained.size());
  // A survivor that already finished its own shards has exited cleanly
  // and will never see the handover — bounce it. (If it exits in the
  // instant between the handover and this check, the watchdog's
  // exited-clean-but-undrained scan respawns it next tick.)
  if (survivor->exited.load(std::memory_order_acquire) &&
      !stop_.load(std::memory_order_relaxed)) {
    if (survivor->thread.joinable()) survivor->thread.join();
    spawn_worker(*survivor);
  }
}

void Engine::watchdog_main() {
  const auto interval = std::chrono::milliseconds(
      std::max<u64>(1, cfg_.supervisor.watchdog_interval_ms));
  const auto stall_deadline =
      std::chrono::milliseconds(cfg_.supervisor.stall_deadline_ms);
  // Abort-aware sleep: a drain/stop mid-backoff must not hold up
  // shutdown for the full backoff.
  const auto nap = [this](std::chrono::milliseconds total) {
    const auto until = Clock::now() + total;
    while (Clock::now() < until) {
      if (stop_.load(std::memory_order_relaxed) ||
          watchdog_stop_.load(std::memory_order_relaxed)) {
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  struct Track {
    u64 last_heartbeat = 0;
    Clock::time_point last_change;
    bool in_stall = false;
  };
  std::vector<Track> track(threads_.size());
  for (auto& t : track) t.last_change = Clock::now();
  while (!watchdog_stop_.load(std::memory_order_relaxed)) {
    nap(interval);
    if (watchdog_stop_.load(std::memory_order_relaxed)) break;
    bool concluded = true;
    const Clock::time_point now = Clock::now();
    for (usize i = 0; i < threads_.size(); ++i) {
      WorkerThread& w = *threads_[i];
      if (w.failed_permanently.load(std::memory_order_relaxed)) continue;
      if (!w.exited.load(std::memory_order_acquire)) {
        concluded = false;
        // Stall detection: a heartbeat that has not moved for the
        // deadline is one episode; it re-arms when the worker moves
        // again. Stalled workers are not killed — a stuck C++ thread
        // cannot be preempted — they are expected to resume (bounded
        // stalls) or die (which the exit path handles).
        Track& t = track[i];
        const u64 hb = w.heartbeat.load(std::memory_order_relaxed);
        if (hb != t.last_heartbeat) {
          t.last_heartbeat = hb;
          t.last_change = now;
          t.in_stall = false;
        } else if (!t.in_stall && now - t.last_change >= stall_deadline) {
          t.in_stall = true;
          counters_.add(EngineCounter::stall_detections, 1);
        }
        continue;
      }
      if (w.thread.joinable()) w.thread.join();
      if (w.error.empty()) {
        // Clean exit. If a takeover handed it shards in the instant it
        // was exiting, bounce it back up — Shard::drained makes the
        // respawn resume exactly where delivery stopped.
        if (!stop_.load(std::memory_order_relaxed) && has_undrained(w)) {
          concluded = false;
          track[i] = {w.heartbeat.load(std::memory_order_relaxed),
                      Clock::now(), false};
          spawn_worker(w);
        }
        continue;
      }
      // The worker died. Move the death message to the log, then
      // either respawn (bounded, backed off) or declare it permanently
      // failed and hand its shards over.
      concluded = false;
      const u64 prior = w.restarts.load(std::memory_order_relaxed);
      w.all_errors.push_back(std::move(w.error));
      w.error.clear();
      if (stop_.load(std::memory_order_relaxed)) {
        // Shutting down: no point restarting into the stop flag.
        fail_permanently(w);
        continue;
      }
      if (prior < cfg_.supervisor.max_restarts) {
        nap(std::chrono::milliseconds(cfg_.supervisor.restart_backoff_ms
                                      << prior));
        if (stop_.load(std::memory_order_relaxed) ||
            watchdog_stop_.load(std::memory_order_relaxed)) {
          fail_permanently(w);
          continue;
        }
        w.restarts.fetch_add(1, std::memory_order_relaxed);
        counters_.add(EngineCounter::worker_restarts, 1);
        track[i] = {w.heartbeat.load(std::memory_order_relaxed),
                    Clock::now(), false};
        spawn_worker(w);
      } else {
        // Order matters for wait(): reassign first, flag last, so a
        // permanently-failed worker is never observed mid-takeover.
        take_over_shards(w);
        fail_permanently(w);
      }
    }
    if (concluded) {
      run_concluded_.store(true, std::memory_order_release);
      break;
    }
  }
}

EngineReport Engine::stop() { return finish(/*signal_stop=*/true); }

EngineReport Engine::wait() {
  if (cfg_.loop) {
    throw ConfigError("Engine: wait() needs a finite pool; "
                      "loop mode uses stop()");
  }
  return finish(/*signal_stop=*/false);
}

void Engine::fail_permanently(WorkerThread& w) {
  w.failed_permanently.store(true, std::memory_order_release);
  counters_.add(EngineCounter::workers_failed, 1);
}

telemetry::EngineCounterSet Engine::counters() const {
  telemetry::EngineCounterSet c = counters_.snapshot();
  // Trace loss is counted where the rings drain: each ring counts its
  // overwritten slots, a running sampler its spans past the cap.
  for (const auto& t : tel_) {
    c[EngineCounter::trace_events_dropped] += t->ring.dropped();
  }
  if (sampler_ != nullptr) {
    c[EngineCounter::trace_events_truncated] = sampler_->truncated();
  }
  return c;
}

EngineReport Engine::finish(bool signal_stop) {
  if (signal_stop) {
    stop_.store(true, std::memory_order_relaxed);
  }
  if (watchdog_.joinable()) {
    if (!signal_stop) {
      // Natural conclusion: restarts and takeovers must play out before
      // the joins below, or a dead worker's respawn would race them.
      while (!run_concluded_.load(std::memory_order_acquire) &&
             !stop_.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    watchdog_stop_.store(true, std::memory_order_relaxed);
    watchdog_.join();
  }
  double wall = 0;
  for (auto& w : threads_) {
    if (w->thread.joinable()) {
      w->thread.join();
    }
    wall = std::max(wall, w->wall_seconds);
  }
  if (running_) {
    wall_seconds_ = wall;
    running_ = false;
    // Conservation ledger (finite runs), taken exactly once, while the
    // caller's pool is certainly still alive: every offered packet must
    // be delivered, still-unclaimed (shed), or claimed-but-undelivered
    // (lost in a dead worker's in-flight batch).
    if (!cfg_.loop) {
      conservation_checked_ = true;
      u64 offered = 0;
      u64 claimed = 0;
      u64 delivered = 0;
      for (const auto& sh : shards_) {
        offered += sh->active_pool->size();
        claimed += sh->active_pool->claimed();
        delivered += sh->sink.packets();
      }
      counters_.set(EngineCounter::offered_packets, offered);
      counters_.set(EngineCounter::delivered_packets, delivered);
      counters_.set(EngineCounter::shed_packets, offered - claimed);
      counters_.set(EngineCounter::lost_packets, claimed - delivered);
    }
  }
  // Telemetry epilogue, after every worker joined (so totals are
  // final): the sampler takes its mandatory flush tick (sum of interval
  // deltas == end-of-run totals), and the rings get one final drain so
  // drop accounting is complete even without a sampler. Idempotent —
  // stop() may be called again.
  if (sampler_ != nullptr) {
    sampler_->stop();
    timeseries_ = sampler_->take_samples();
    trace_events_ = sampler_->take_events();
    counters_.set(EngineCounter::trace_events_truncated, sampler_->truncated());
    sampler_.reset();
    final_drained_ = true;
  } else if (!final_drained_) {
    const usize keep = trace_keep();
    u64 truncated = 0;
    for (const auto& t : tel_) {
      if (keep == 0) {
        t->ring.drain(nullptr);
      } else if (trace_events_.size() < keep) {
        t->ring.drain(&trace_events_);
      } else {
        truncated += t->ring.drain(nullptr);
      }
    }
    if (keep > 0 && trace_events_.size() > keep) {
      truncated += trace_events_.size() - keep;
      trace_events_.resize(keep);
    }
    counters_.add(EngineCounter::trace_events_truncated, truncated);
    final_drained_ = true;
  }
  return collect();
}

usize Engine::trace_keep() const {
  return cfg_.collect_trace ? kTraceKeepLimit : 0;
}

EngineReport Engine::run(TrafficPool& pool) {
  if (cfg_.loop) {
    throw ConfigError("Engine: run() requires a finite pool; "
                      "loop mode uses start()/stop()");
  }
  start(pool);
  // Workers exit on pool exhaustion; join without raising the stop flag
  // (raising it would cut them off after their first batch).
  return finish(/*signal_stop=*/false);
}

WorkerReport Engine::shard_report(const Shard& s) const {
  WorkerReport r;
  r.worker = s.index;
  s.parser.fill_counters(r.counters);
  if (s.cache) s.cache->fill_counters(r.counters);
  s.classifier.fill_counters(r.counters);
  s.sink.fill_counters(r.counters);
  r.min_version = s.classifier.min_version();
  r.version_monotonic = s.classifier.version_monotonic();
  r.latency = s.sink.latency();
  r.wall_seconds = threads_[s.owner]->wall_seconds;
  r.error = threads_[s.owner]->error;
  return r;
}

EngineReport Engine::collect() const {
  EngineReport rep;
  rep.wall_seconds = wall_seconds_;
  std::vector<WorkerReport> shard_rows;
  shard_rows.reserve(shards_.size());
  for (const auto& sh : shards_) {
    shard_rows.push_back(shard_report(*sh));
  }
  for (const auto& th : threads_) {
    std::vector<WorkerReport> rows;
    rows.reserve(th->shards.size());
    for (const Shard* sh : th->shards) {
      rows.push_back(shard_rows[sh->index]);
    }
    WorkerReport m = merge_reports(th->index, rows);
    if (m.error.empty()) m.error = th->error;
    m.wall_seconds = th->wall_seconds;
    // The healed-vs-fatal error rule: under the supervisor, a death the
    // watchdog healed (restart, or a takeover that saved every shard)
    // keeps the row's error empty — the run delivered its packets; the
    // messages live in rep.error_log. A permanent failure that lost
    // shards IS fatal and surfaces.
    if (m.error.empty() && th->shards_lost > 0 &&
        th->failed_permanently.load(std::memory_order_relaxed)) {
      m.error = th->all_errors.empty()
                    ? std::string("worker failed permanently")
                    : th->all_errors.back();
    }
    rep.workers.push_back(std::move(m));
  }
  rep.shards = std::move(shard_rows);
  if (cfg_.capture_verdicts) {
    rep.captured.reserve(shards_.size());
    for (const auto& sh : shards_) {
      rep.captured.push_back(sh->captured);
    }
  }
  rep.timeseries = timeseries_;
  rep.trace_events = trace_events_;
  rep.counters = counters();
  rep.conservation_checked = conservation_checked_;
  for (const auto& th : threads_) {
    const bool failed = th->failed_permanently.load(std::memory_order_relaxed);
    for (usize k = 0; k < th->all_errors.size(); ++k) {
      rep.error_log.push_back(
          {th->index, static_cast<u64>(k),
           failed && k + 1 == th->all_errors.size() && th->error.empty(),
           th->all_errors[k]});
    }
    if (!th->error.empty()) {
      // Died after the watchdog wound down (or without one): final.
      rep.error_log.push_back({th->index,
                               th->restarts.load(std::memory_order_relaxed),
                               true, th->error});
    }
  }
  return rep;
}

}  // namespace pclass::dataplane
