/// \file export.hpp
/// Telemetry file exporters: a chrome://tracing JSON writer (one
/// process per scenario/run, one track per worker, spans from TraceRing
/// events — load the file at chrome://tracing or ui.perfetto.dev) and a
/// small Prometheus text-exposition helper the CLIs use for
/// --metrics-out dumps.
#pragma once

#include <iosfwd>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/counters.hpp"
#include "telemetry/trace_ring.hpp"

namespace pclass::telemetry {

/// One traced process (a scenario or a CLI run) and its batch spans.
struct TraceProcess {
  std::string name;
  std::vector<TraceEvent> events;
};

/// Write the chrome://tracing "JSON Object Format": process/thread name
/// metadata plus one "X" (complete) event per batch span, ts/dur in
/// microseconds rebased to the earliest event across all processes.
void write_chrome_trace(std::ostream& os,
                        std::span<const TraceProcess> processes);

/// Prometheus text exposition writer: `# HELP`/`# TYPE` once per metric
/// name (first use wins) and one sample line per call. The exposition
/// format requires each family's lines as one group, while callers
/// write row by row (one label block per worker or scenario), so samples
/// are buffered per family and written out, families in first-use
/// order, by flush() or the destructor. Label values are escaped per
/// the exposition format.
class MetricsWriter {
 public:
  struct Label {
    std::string_view key;
    std::string_view value;
  };

  explicit MetricsWriter(std::ostream& os) : os_(os) {}
  ~MetricsWriter() { flush(); }

  MetricsWriter(const MetricsWriter&) = delete;
  MetricsWriter& operator=(const MetricsWriter&) = delete;

  /// Write every buffered family to the stream. Call it before reading
  /// the stream while the writer is still alive.
  void flush();

  void counter(std::string_view name, std::string_view help,
               std::span<const Label> labels, double value) {
    sample(name, "counter", help, labels, value);
  }
  void gauge(std::string_view name, std::string_view help,
             std::span<const Label> labels, double value) {
    sample(name, "gauge", help, labels, value);
  }

 private:
  void sample(std::string_view name, std::string_view type,
              std::string_view help, std::span<const Label> labels,
              double value);

  std::ostream& os_;
  /// Family name -> index into families_ (its first-use position).
  std::map<std::string, usize, std::less<>> index_;
  /// Each family's text: HELP and TYPE lines, then its samples.
  std::vector<std::string> families_;
};

/// One sample per row of \p c's table, with the row's help text:
/// `<prefix><name>_total` for counter rows, `<prefix><name>` for gauges.
template <class Set>
void write_counter_metrics(MetricsWriter& mw, std::string_view prefix,
                           std::span<const MetricsWriter::Label> labels,
                           const Set& c) {
  for (usize i = 0; i < c.v.size(); ++i) {
    const CounterDef& d = Set::kDefs[i];
    const std::string name = std::string(prefix) + std::string(d.name);
    const auto value = static_cast<double>(c.v[i]);
    if (d.kind == CounterKind::kCounter) {
      mw.counter(name + "_total", d.help, labels, value);
    } else {
      mw.gauge(name, d.help, labels, value);
    }
  }
}

/// The `pclass_build_info` gauge: build metadata as labels, value 1.
void write_build_info(MetricsWriter& mw);

/// The end-of-run block of the CLIs' --metrics-out dumps: every worker
/// and engine row (`pclass_<name>`), the aggregate Mpps, p50/p99
/// modelled lookup cycles and the mean update visibility.
void write_run_metrics(MetricsWriter& mw,
                       std::span<const MetricsWriter::Label> labels,
                       const CounterSet& workers,
                       const EngineCounterSet& engine, double mpps,
                       u64 cycles_p50, u64 cycles_p99);

}  // namespace pclass::telemetry
