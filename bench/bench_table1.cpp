/// \file bench_table1.cpp
/// Table I — "Performance evaluation of algorithm based on different
/// lookup approaches": average lookup memory accesses and memory space
/// for HyperCuts, RFC, DCFL and the Option-1/Option-2 single-field
/// combinations, on the acl1-like workload.
///
/// Paper values (from the authors' prior work [17]):
///   HyperCuts 60.05 acc / 5.96 Mb;  RFC 48 acc / 31.48 Mb;
///   DCFL 23.1 acc / 22.54 Mb;  Option1 49.3 acc / 5.57 Mb;
///   Option2 31.33 acc / 6.36 Mb.
/// Expected shape: RFC's memory dominates everything; DCFL needs the
/// fewest accesses within the decomposition family; Option 2 beats
/// Option 1. See EXPERIMENTS.md for metric-definition caveats.
#include "baseline/dcfl.hpp"
#include "baseline/hypercuts.hpp"
#include "baseline/linear_search.hpp"
#include "baseline/option_trie.hpp"
#include "baseline/rfc.hpp"
#include "bench_util.hpp"

using namespace pclass;
using namespace pclass::bench;

int main(int argc, char** argv) {
  const usize nominal = argc > 1 ? std::stoul(argv[1]) : 5000;
  const Workload w =
      make_workload(ruleset::FilterType::kAcl, nominal, 5000);
  header("Table I — lookup approaches compared",
         "workload: " + w.rules.name() + " (" +
             std::to_string(w.rules.size()) + " rules), " +
             std::to_string(w.trace.size()) + " headers");

  baseline::HyperCuts hypercuts(w.rules);
  baseline::Rfc rfc(w.rules);
  baseline::Dcfl dcfl(w.rules);
  baseline::OptionTrie opt1(w.rules, baseline::OptionConfig::option1());
  baseline::OptionTrie opt2(w.rules, baseline::OptionConfig::option2());

  struct Row {
    const baseline::Baseline* b;
    double paper_acc;
    double paper_mb;
  };
  const Row rows[] = {{&hypercuts, 60.05, 5.96},
                      {&rfc, 48.0, 31.48},
                      {&dcfl, 23.1, 22.54},
                      {&opt1, 49.3, 5.57},
                      {&opt2, 31.33, 6.36}};

  TextTable t({"algorithm", "paper acc", "measured acc", "paper Mb",
               "measured Mb", "oracle agreement"});
  for (const Row& row : rows) {
    baseline::LookupCost cost;
    usize agree = 0;
    baseline::LinearSearch oracle(w.rules);
    for (const auto& e : w.trace) {
      const auto* got = row.b->classify(e.header, &cost);
      const auto* want = oracle.classify(e.header, nullptr);
      if ((got == nullptr) == (want == nullptr) &&
          (got == nullptr || got->id == want->id)) {
        ++agree;
      }
    }
    t.add_row({row.b->name(), TextTable::num(row.paper_acc),
               TextTable::num(static_cast<double>(cost.memory_accesses) /
                              static_cast<double>(w.trace.size())),
               TextTable::num(row.paper_mb),
               mb(row.b->memory_bits()),
               std::to_string(agree) + "/" +
                   std::to_string(w.trace.size())});
  }
  t.print(std::cout);
  std::cout << "\nshape checks: RFC memory dominates; DCFL fewest accesses "
               "in the decomposition family; Option2 <= Option1.\n";
  return 0;
}
