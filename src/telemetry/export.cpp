#include "telemetry/export.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <ostream>

#include "workload/json_writer.hpp"

namespace pclass::telemetry {

namespace {

/// Microseconds with ns resolution kept (chrome accepts fractional ts).
double to_us(u64 ns) { return static_cast<double>(ns) / 1e3; }

}  // namespace

void write_chrome_trace(std::ostream& os,
                        std::span<const TraceProcess> processes) {
  // Rebase to the earliest span so timestamps stay small and the
  // viewer opens at t=0.
  u64 base = std::numeric_limits<u64>::max();
  for (const TraceProcess& p : processes) {
    for (const TraceEvent& e : p.events) {
      base = std::min(base, e.t_start_ns);
    }
  }
  if (base == std::numeric_limits<u64>::max()) base = 0;

  workload::JsonWriter j(os);
  j.begin_object();
  j.key("displayTimeUnit").value("ms");
  j.key("traceEvents").begin_array();
  for (usize pid = 0; pid < processes.size(); ++pid) {
    const TraceProcess& p = processes[pid];
    j.begin_object();
    j.key("name").value("process_name");
    j.key("ph").value("M");
    j.key("pid").value(pid);
    j.key("args").begin_object().key("name").value(p.name).end_object();
    j.end_object();
    // One thread-name metadata row per worker that produced events.
    std::set<u32> workers;
    for (const TraceEvent& e : p.events) workers.insert(e.worker);
    for (const u32 w : workers) {
      j.begin_object();
      j.key("name").value("thread_name");
      j.key("ph").value("M");
      j.key("pid").value(pid);
      j.key("tid").value(w);
      j.key("args")
          .begin_object()
          .key("name")
          .value("worker" + std::to_string(w))
          .end_object();
      j.end_object();
    }
    for (const TraceEvent& e : p.events) {
      j.begin_object();
      j.key("name").value("batch");
      j.key("ph").value("X");
      j.key("pid").value(pid);
      j.key("tid").value(e.worker);
      j.key("ts").value(to_us(e.t_start_ns - base));
      j.key("dur").value(to_us(e.duration_ns));
      j.key("args").begin_object();
      j.key("packets").value(e.packets);
      j.key("lookups").value(e.lookups);
      j.key("distinct_keys").value(e.distinct_keys);
      j.key("path").value(std::string(core::to_string(e.path)));
      j.key("memo_hits").value(e.memo_hits);
      j.key("memo_conflicts").value(e.memo_conflicts);
      j.key("snapshot_version").value(e.snapshot_version);
      j.end_object();
      j.end_object();
    }
  }
  j.end_array();
  j.end_object();
  os << "\n";
}

void MetricsWriter::sample(std::string_view name, std::string_view type,
                           std::string_view help,
                           std::span<const Label> labels, double value) {
  if (declared_.find(name) == declared_.end()) {
    os_ << "# HELP " << name << " " << help << "\n";
    os_ << "# TYPE " << name << " " << type << "\n";
    declared_.emplace(name);
  }
  os_ << name;
  if (!labels.empty()) {
    os_ << "{";
    bool first = true;
    for (const Label& l : labels) {
      if (!first) os_ << ",";
      first = false;
      os_ << l.key << "=\"";
      for (const char c : l.value) {
        switch (c) {
          case '\\': os_ << "\\\\"; break;
          case '"': os_ << "\\\""; break;
          case '\n': os_ << "\\n"; break;
          default: os_ << c;
        }
      }
      os_ << "\"";
    }
    os_ << "}";
  }
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.9g", value);
  os_ << " " << buf << "\n";
}

void write_counter_metrics(MetricsWriter& mw, std::string_view prefix,
                           std::span<const MetricsWriter::Label> labels,
                           const CounterSet& c) {
  for (usize i = 0; i < kNumCounters; ++i) {
    const CounterDef& d = kCounters[i];
    std::string name(prefix);
    name += d.name;
    const auto value = static_cast<double>(c.v[i]);
    if (d.kind == CounterKind::kCounter) {
      mw.counter(name + "_total", d.help, labels, value);
    } else {
      mw.gauge(name, d.help, labels, value);
    }
  }
}

}  // namespace pclass::telemetry
