/// \file bench_ablation_combine.cpp
/// Ablation A (DESIGN.md §1.1) — the paper's first-label combination vs
/// the exact (pruned cross-product) combination, across all nine calibrated
/// workloads: HPMR agreement with the linear-search oracle, hash probes
/// and cycles per lookup. This quantifies the soundness gap the paper
/// does not evaluate: a single first-label probe is fast but rarely
/// lands on the highest-priority matching rule in overlapping sets.
#include "bench_util.hpp"

using namespace pclass;
using namespace pclass::bench;

int main() {
  header("Ablation — phase-3 combination policy",
         "agreement = classify() == linear-search oracle (HPMR), "
         "9 workloads x 2 modes, MBT configuration");

  TextTable t({"workload", "mode", "agreement", "hit-is-valid", "probes/pkt",
               "cycles/pkt"});
  for (const auto type : {ruleset::FilterType::kAcl, ruleset::FilterType::kFw,
                          ruleset::FilterType::kIpc}) {
    for (const usize nominal : {usize{1000}, usize{5000}, usize{10000}}) {
      const Workload w = make_workload(type, nominal, 2000);
      for (const auto mode : {core::CombineMode::kFirstLabel,
                              core::CombineMode::kCrossProduct}) {
        auto clf = make_classifier(w.rules, core::IpAlgorithm::kMbt, mode);
        const dataplane::SnapshotOracle oracle(w.rules);
        dataplane::OracleCheck check;
        usize hits = 0, valid_hits = 0;
        u64 probes = 0, cycles = 0;
        for (const auto& e : w.trace) {
          const auto res = clf->classify(e.header);
          probes += res.crossproduct_probes;
          cycles += res.cycles;
          oracle.judge(e.header, res.match, check);
          if (res.match) {
            ++hits;
            const auto rule = w.rules.find(res.match->rule);
            if (rule && rule->matches(e.header)) ++valid_hits;
          }
        }
        const usize agree = check.checked - check.mismatches;
        const auto n = static_cast<double>(w.trace.size());
        t.add_row({w.rules.name(), to_string(mode),
                   TextTable::num(100.0 * static_cast<double>(agree) / n,
                                  1) +
                       " %",
                   hits == 0 ? "-"
                             : TextTable::num(100.0 *
                                                  static_cast<double>(
                                                      valid_hits) /
                                                  static_cast<double>(hits),
                                              1) +
                                   " %",
                   TextTable::num(static_cast<double>(probes) / n, 1),
                   TextTable::num(static_cast<double>(cycles) / n, 1)});
      }
    }
  }
  t.print(std::cout);
  std::cout
      << "\nreading: CrossProduct is exact by construction (100 % "
         "agreement, provable). It does not probe the whole cross "
         "product: a search prunes every combination whose label "
         "priority bound cannot beat the best hit or whose label prefix "
         "is in no installed rule, so it probes a handful of "
         "combinations per packet instead of the whole product; its "
         "extra cycles are the prefix-table checks. "
         "FirstLabel returns only valid matching rules when it hits, but "
         "misses / under-prioritizes on overlapping sets — the cost of "
         "the paper's single-probe phase 3.\n";
  return 0;
}
