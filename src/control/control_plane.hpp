/// \file control_plane.hpp
/// The ControlPlane binds a *running* Engine + RuleProgramPublisher to
/// the control socket's handler registry — the glue layer of the live
/// introspection plane:
///
///   * read handlers snapshot the per-worker WorkerTelemetry atomics
///     without stopping anything (`read stats` JSON, `read metrics`
///     Prometheus text, `read timeseries`, `read version`,
///     `read handlers`, `read verify`);
///   * write handlers drive the southbound path (`rule add/remove/
///     modify`, `set <knob>`, `trace start/stop/dump`, `drain`,
///     `shutdown`);
///   * a visibility watcher measures true socket-to-dataplane update
///     latency per accepted command: the command's parse timestamp and
///     the PublishClock's publish stamp are paired with the moment the
///     workers' live snapshot_version counters catch up (first worker
///     and all workers), surfaced in `read stats` and the final report;
///   * the StatsSampler subscriber hook is re-exposed per client with
///     interval decimation: rows are merged sum-exactly until the
///     client's requested window elapses, so a 500ms subscriber of a
///     100ms sampler still sees deltas that sum to the totals.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "control/registry.hpp"
#include "control/server.hpp"
#include "dataplane/engine.hpp"
#include "dataplane/rule_program.hpp"
#include "net/trace.hpp"

namespace pclass::control {

class ControlPlane {
 public:
  struct Options {
    /// Trace for `read verify` (oracle re-classification of every
    /// header against the published snapshot). nullptr disables the
    /// handler with 409.
    const net::Trace* verify_trace = nullptr;
    /// Invoked by `write shutdown` *after* the handler returned (from
    /// the connection thread). Must only signal — e.g. flip a flag and
    /// notify the daemon's main loop; tearing the server down from here
    /// would self-deadlock.
    std::function<void()> request_shutdown;
    /// Cap on `trace start` capture buffers (events).
    usize trace_capture_limit = usize{1} << 15;
  };

  /// Attach to a STARTED engine (the visibility watcher snapshots the
  /// worker telemetry blocks at construction). \p engine, \p publisher
  /// and anything referenced by \p opts must outlive the ControlPlane.
  ControlPlane(dataplane::Engine& engine,
               dataplane::RuleProgramPublisher& publisher, Options opts);
  ControlPlane(dataplane::Engine& engine,
               dataplane::RuleProgramPublisher& publisher);
  ~ControlPlane();

  ControlPlane(const ControlPlane&) = delete;
  ControlPlane& operator=(const ControlPlane&) = delete;

  [[nodiscard]] const HandlerRegistry& registry() const { return registry_; }

  /// Subscription hooks for the ControlServer (bound to this).
  [[nodiscard]] SubscribeHooks subscribe_hooks();

  /// Stop the engine (final telemetry flush included), remember its
  /// report, flush partial subscriber windows and settle the visibility
  /// ledger. Idempotent and callable from any thread — the daemon's
  /// signal path and a `write drain` may race. The server keeps
  /// answering reads afterwards (that is the CI reconcile moment).
  dataplane::EngineReport drain();

  /// The control-socket rows (telemetry/counters.hpp) into \p out:
  /// accepted updates and their socket-to-dataplane visibility.
  void fill_counters(telemetry::SocketCounterSet& out) const;

  [[nodiscard]] const dataplane::RuleProgramPublisher& publisher() const {
    return publisher_;
  }

  // Payload builders, public so the daemon's final report and the tests
  // can reuse exactly what the wire serves.
  [[nodiscard]] std::string stats_json();
  [[nodiscard]] std::string metrics_text();
  [[nodiscard]] std::string timeseries_json();

 private:
  struct SubState;
  struct PendingUpdate {
    u64 version = 0;
    u64 t_cmd_ns = 0;      ///< request parse time
    u64 t_publish_ns = 0;  ///< PublishClock stamp (fallback: t_cmd)
    u64 t_first_ns = 0;    ///< first worker sighting (0 = not yet)
  };

  void build_registry();
  /// The write-rule / write-set tail: stamp + enqueue for the watcher.
  void note_socket_update(u64 version, u64 t_cmd_ns);
  void visibility_loop();
  /// One resolution pass over pending_ (called by the watcher and once
  /// at drain); caller must NOT hold vis_mu_.
  void visibility_pass();
  /// Min/max snapshot_version over the live worker blocks (0 = a
  /// worker that never classified yet).
  [[nodiscard]] std::pair<u64, u64> worker_versions() const;

  u64 subscribe_stats(u64 interval_ms,
                      std::function<void(const std::string&)> push_row);
  void unsubscribe_stats(u64 token);

  dataplane::Engine& engine_;
  dataplane::RuleProgramPublisher& publisher_;
  Options opts_;
  HandlerRegistry registry_;
  std::vector<const telemetry::WorkerTelemetry*> tel_blocks_;
  u64 t_attach_ns_ = 0;

  /// Serializes engine lifecycle (drain) against every handler that
  /// touches the engine or its sampler.
  std::mutex engine_mu_;
  bool drained_ = false;
  dataplane::EngineReport final_report_;

  // Visibility watcher state.
  mutable std::mutex vis_mu_;
  std::condition_variable vis_cv_;
  bool vis_stop_ = false;
  std::deque<PendingUpdate> pending_;
  /// The socket rows; visibility_pending is pending_.size() on read.
  telemetry::SocketCounterSet socket_;
  std::thread vis_thread_;

  // Streaming subscribers (token -> decimating window state).
  std::mutex subs_mu_;
  std::map<u64, std::shared_ptr<SubState>> subs_;

  // On-demand trace capture (`trace start/stop/dump`).
  std::mutex trace_mu_;
  std::vector<telemetry::TraceEvent> last_capture_;
  u64 last_capture_truncated_ = 0;
  bool has_capture_ = false;
};

/// The daemon's end-of-run JSON report (schema pclass-serve-v3): all
/// four counter tables, per-worker / per-shard rows and totals, the
/// publisher, engine and socket rows (with the server's connection
/// counters), the update-visibility rollup and the timeseries.
void write_serve_report(std::ostream& os, const dataplane::EngineReport& rep,
                        const ControlPlane& cp, const ControlServer& server);

}  // namespace pclass::control
