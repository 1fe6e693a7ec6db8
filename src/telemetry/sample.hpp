/// \file sample.hpp
/// The StatsSampler's per-interval delta record, split into its own
/// header so dataplane::EngineReport can carry a time series without
/// pulling in the sampler (whose live-counter types include
/// dataplane/stats.hpp — keeping this struct free of those includes
/// breaks that cycle).
#pragma once

#include "common/types.hpp"
#include "telemetry/counters.hpp"

namespace pclass::telemetry {

/// One interval's record (engine-wide, merged over all workers).
struct StatsSample {
  u64 t_ns = 0;         ///< end of the interval, since sampler start
  u64 interval_ns = 0;  ///< actual (measured) interval length
  /// Every registry row: sum rows hold the interval's delta, max rows
  /// the value at sample time (CounterSet::minus). Merging a run's rows
  /// gives its end-of-run totals.
  CounterSet counters;
  double mpps = 0;  ///< instantaneous packets/interval in Mpps
  /// Interval latency percentiles (modelled lookup cycles), computed
  /// from the bucket deltas of the live histograms.
  u64 p50_cycles = 0;
  u64 p99_cycles = 0;
  /// Lowest nonzero snapshot version across workers at sample time (0 =
  /// none yet); the highest is counters[snapshot_version].
  u64 min_version = 0;
};

/// Write one row as a JSON object: t_ns, interval_ns, every registry
/// row, then the derived fields (a `subscribe` row, a `read timeseries`
/// row and a scenario report's timeseries row alike).
template <class JsonWriter>
void write_stats_sample(JsonWriter& w, const StatsSample& s) {
  w.begin_object();
  w.key("t_ns").value(s.t_ns);
  w.key("interval_ns").value(s.interval_ns);
  write_counters(w, s.counters);
  w.key("mpps").value(s.mpps);
  w.key("p50_cycles").value(s.p50_cycles);
  w.key("p99_cycles").value(s.p99_cycles);
  w.key("min_version").value(s.min_version);
  w.key("max_version").value(s.counters[Counter::snapshot_version]);
  w.key("update_visibility_mean_ns")
      .value(s.counters.update_visibility().mean_ns);
  w.end_object();
}

}  // namespace pclass::telemetry
