#include "telemetry/export.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <ostream>
#include <set>

#include "common/build_info.hpp"
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
  auto it = index_.find(name);
  if (it == index_.end()) {
    it = index_.emplace(std::string(name), families_.size()).first;
    std::string& head = families_.emplace_back();
    head.append("# HELP ").append(name).append(" ").append(help);
    head.append("\n# TYPE ").append(name).append(" ").append(type);
    head.append("\n");
  }
  std::string& out = families_[it->second];
  out.append(name);
  if (!labels.empty()) {
    out.append("{");
    bool first = true;
    for (const Label& l : labels) {
      if (!first) out.append(",");
      first = false;
      out.append(l.key).append("=\"");
      for (const char c : l.value) {
        switch (c) {
          case '\\': out.append("\\\\"); break;
          case '"': out.append("\\\""); break;
          case '\n': out.append("\\n"); break;
          default: out.push_back(c);
        }
      }
      out.append("\"");
    }
    out.append("}");
  }
  char buf[48];
  std::snprintf(buf, sizeof buf, " %.9g\n", value);
  out.append(buf);
}

void MetricsWriter::flush() {
  for (const std::string& f : families_) os_ << f;
  families_.clear();
  index_.clear();
}

void write_build_info(MetricsWriter& mw) {
  const common::BuildInfo& b = common::build_info();
  const MetricsWriter::Label labels[] = {{"version", b.version},
                                         {"git_sha", b.git_sha},
                                         {"build_type", b.build_type}};
  mw.gauge("pclass_build_info", "Build metadata as labels; value is always 1.",
           labels, 1.0);
}

void write_run_metrics(MetricsWriter& mw,
                       std::span<const MetricsWriter::Label> labels,
                       const CounterSet& workers,
                       const EngineCounterSet& engine, double mpps,
                       u64 cycles_p50, u64 cycles_p99) {
  write_counter_metrics(mw, "pclass_", labels, workers);
  write_counter_metrics(mw, "pclass_", labels, engine);
  mw.gauge("pclass_throughput_mpps", "End-of-run aggregate Mpps", labels,
           mpps);
  mw.gauge("pclass_lookup_cycles_p50", "Modelled lookup cycles, p50", labels,
           static_cast<double>(cycles_p50));
  mw.gauge("pclass_lookup_cycles_p99", "Modelled lookup cycles, p99", labels,
           static_cast<double>(cycles_p99));
  mw.gauge("pclass_update_visibility_mean_ns",
           "Mean publish->worker-visible latency", labels,
           workers.update_visibility().mean_ns);
}

}  // namespace pclass::telemetry
