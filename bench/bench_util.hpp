/// \file bench_util.hpp
/// Shared plumbing for the paper-reproduction bench binaries: workload
/// construction, classifier setup and measurement loops. Each bench
/// prints one table/figure of the paper with paper-reported values next
/// to our measured ones (see EXPERIMENTS.md for the comparison notes).
#pragma once

#include <iostream>
#include <string>

#include "common/table.hpp"
#include "core/classifier.hpp"
#include "core/cycle_model.hpp"
#include "dataplane/rule_program.hpp"
#include "ruleset/generator.hpp"
#include "ruleset/stats.hpp"
#include "workload/profile.hpp"
#include "workload/ruleset_synth.hpp"
#include "workload/trace_synth.hpp"

namespace pclass::bench {

/// Standard workload: a calibrated ClassBench-like set plus its trace.
struct Workload {
  ruleset::RuleSet rules;
  net::Trace trace;
};

/// Paper-reproduction workload: the Table II/III-calibrated rule set
/// (unique-field counts must keep matching the paper), driven by the
/// workload subsystem's flow-structured trace (Zipf popularity + bursts)
/// instead of the old flat per-header draws.
inline Workload make_workload(ruleset::FilterType type, usize nominal,
                              usize headers = 10'000, u64 seed = 2014) {
  Workload w;
  w.rules = ruleset::make_classbench_like(type, nominal, seed);
  workload::TraceSynthesizer ts(
      w.rules, workload::TraceProfile::standard(headers, seed ^ 0xABCD));
  w.trace = ts.generate();
  return w;
}

/// Structural workload: a profile-synthesized set (overlap control,
/// correlated pairs, port classes) with a matching trace — what the
/// scenario catalog runs; exposed here for benches that want the same.
inline Workload make_profile_workload(const workload::RulesetProfile& rp,
                                      const workload::TraceProfile& tp) {
  Workload w;
  w.rules = workload::synthesize(rp);
  workload::TraceSynthesizer ts(w.rules, tp);
  w.trace = ts.generate();
  return w;
}

/// Build a classifier for \p rules with the given configuration knobs
/// and bulk-load the set.
inline std::unique_ptr<core::ConfigurableClassifier> make_classifier(
    const ruleset::RuleSet& rules, core::IpAlgorithm alg,
    core::CombineMode mode) {
  core::ClassifierConfig cfg =
      core::ClassifierConfig::for_scale(rules.size());
  cfg.ip_algorithm = alg;
  cfg.combine_mode = mode;
  auto clf = std::make_unique<core::ConfigurableClassifier>(cfg);
  clf->add_rules(rules);
  return clf;
}

/// Classification sweep: mean/max cycles and accesses over a trace.
struct SweepResult {
  double mean_cycles = 0;
  double mean_accesses = 0;
  u64 max_cycles = 0;
  u64 max_accesses = 0;
  usize hits = 0;
  usize oracle_agreement = 0;  ///< verdicts the oracle agrees with
  usize headers = 0;
};

inline SweepResult sweep(const core::ConfigurableClassifier& clf,
                         const Workload& w) {
  const dataplane::SnapshotOracle oracle(w.rules);
  dataplane::OracleCheck check;
  SweepResult out;
  hw::CycleAggregate agg;
  for (const auto& e : w.trace) {
    const auto res = clf.classify(e.header);
    hw::CycleRecorder rec;
    rec.charge(res.cycles, res.memory_accesses);
    agg.add(rec);
    if (res.match) ++out.hits;
    oracle.judge(e.header, res.match, check);
  }
  out.oracle_agreement = check.checked - check.mismatches;
  out.mean_cycles = agg.mean_cycles();
  out.mean_accesses = agg.mean_accesses();
  out.max_cycles = agg.max_cycles();
  out.max_accesses = agg.max_accesses();
  out.headers = w.trace.size();
  return out;
}

inline std::string mb(u64 bits) {
  return TextTable::num(static_cast<double>(bits) / 1e6, 2);
}
inline std::string kb(u64 bits) {
  return TextTable::num(static_cast<double>(bits) / 1e3, 0);
}

inline void header(const std::string& title, const std::string& note) {
  std::cout << "\n=== " << title << " ===\n";
  if (!note.empty()) {
    std::cout << note << "\n";
  }
  std::cout << "\n";
}

}  // namespace pclass::bench
