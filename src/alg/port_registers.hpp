/// \file port_registers.hpp
/// Register-based port-field lookup (§III.C, Table IV): each unique port
/// range lives in one register holding {low, high, label}; all registers
/// compare against the packet's port in parallel (2 cycles, no memory
/// accesses). Matching labels are produced in the paper's priority order:
/// the exact-matching label first, then range matches from tightest to
/// widest ("The priority of Port labels is given by exact matching label
/// following by the tightest range matching label") — Table IV's example
/// orders B (exact 7812), C ([7810,7820]), A (full range) for port 7812.
///
/// The model charges, the host computes. The register words are the
/// modelled device: they are what the update bus writes, what synthesis
/// counts and what registers() shows. The host cannot compare 128
/// registers in parallel, so it answers from an interval program: the
/// elementary intervals the range bounds cut [0, 65535] into, each
/// mapped to its span of labels already in Table IV order. insert and
/// remove patch the program in one pass beside their register write
/// (split or merge at the range's two bounds, add or drop its label in
/// the spans it covers); clear rebuilds it from the register words.
/// Builds with assertions on (no NDEBUG) also rebuild it after every
/// write and assert that the patched program is identical, bound counts
/// included. A lookup is one branch-free halving search over the interval
/// starts (about log2(intervals) conditional moves, no data-dependent
/// branch to mispredict) returning its interval's span; its cost comes
/// only from RegisterFile::charge_lookup, exactly as if every register
/// were read.
#pragma once

#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "hwsim/register_file.hpp"
#include "hwsim/update_bus.hpp"
#include "ruleset/rule.hpp"

namespace pclass::alg {

/// Geometry of a port register bank.
struct PortRegistersConfig {
  /// Register count; must cover the unique port values of the target
  /// filter sets (acl1 needs 108 + wildcard, so 128 is the natural size
  /// for 7-bit labels).
  u32 count = 128;
  unsigned compare_cycles = 2;  ///< §V.B: "labels in two clock cycles"
};

/// Port-dimension engine.
class PortRegisterFile {
 public:
  PortRegisterFile(const std::string& name, PortRegistersConfig cfg = {});

  // ---- controller-side update path ----

  /// Program one register with \p range -> \p label.
  /// \throws CapacityError when all registers are in use.
  void insert(ruleset::PortRange range, Label label, hw::CommandLog& log);

  /// Clear the register holding \p range.
  void remove(ruleset::PortRange range, hw::CommandLog& log);

  void clear(hw::CommandLog& log);

  // ---- hardware-side lookup path ----

  /// All labels whose range contains \p port, ordered exact-first then
  /// ascending range width (Table IV order): a span of the interval
  /// program, valid until the next write. Charges the fixed parallel
  /// compare cost; register reads are not memory accesses.
  [[nodiscard]] std::span<const Label> lookup(u16 port,
                                              hw::CycleRecorder* rec) const {
    if (rec != nullptr) {
      regs_.charge_lookup(*rec);
    }
    return match(port);
  }

  /// First (highest-priority) matching label only — what the FirstLabel
  /// combiner consumes. Same cost as lookup().
  [[nodiscard]] Label lookup_first(u16 port, hw::CycleRecorder* rec) const {
    const std::span<const Label> m = lookup(port, rec);
    return m.empty() ? Label{} : m.front();
  }

  // ---- introspection ----

  [[nodiscard]] const hw::RegisterFile& registers() const { return regs_; }
  [[nodiscard]] usize range_count() const { return slot_of_.size(); }

  /// True when the patched interval program equals a rebuild from the
  /// register words (asserted after every write when NDEBUG is unset).
  [[nodiscard]] bool program_matches_registers() const;

 private:
  /// The host's view of the programmed registers: elementary interval k
  /// covers ports [starts[k], starts[k + 1]) and matches
  /// labels[offsets[k], offsets[k + 1]).
  struct Program {
    std::vector<u32> starts{0};  ///< ascending; starts[0] is always 0
    /// Live ranges with a bound (lo, or hi + 1) at each start: a start
    /// other than 0 exists while its count is positive.
    std::vector<u32> bounds{0};
    std::vector<u32> offsets{0, 0};
    std::vector<Label> labels;  ///< each span in Table IV order
    std::vector<u32> ranks;     ///< rank_key of each label
    bool operator==(const Program&) const = default;
  };

  /// Register word layout (LSB first): valid(1) lo(16) hi(16) label(7).
  static hw::Word encode(bool valid, ruleset::PortRange r, Label l);

  /// Build the interval program from the register words into \p out.
  void compile(Program& out) const;

  /// Rewrite the program with range \p r and its \p label added (or
  /// removed): one pass over the program, into the spare buffers.
  void patch(ruleset::PortRange r, Label label, bool add);

  /// The Table IV-ordered labels of every range containing \p port.
  /// Finds the last start <= port by halving [base, base + n), which
  /// always holds it (starts[0] is 0): each step keeps the upper half
  /// when its first start is <= port, a select the compiler emits as a
  /// conditional move, so the search takes no data-dependent branch.
  [[nodiscard]] std::span<const Label> match(u16 port) const {
    const u32* const starts = program_.starts.data();
    const u32* base = starts;
    for (usize n = program_.starts.size(); n > 1;) {
      const usize half = n / 2;
      base = base[half] <= port ? base + half : base;
      n -= half;
    }
    const auto k = static_cast<usize>(base - starts);
    return std::span<const Label>(program_.labels)
        .subspan(program_.offsets[k],
                 program_.offsets[k + 1] - program_.offsets[k]);
  }

  hw::RegisterFile regs_;
  std::map<ruleset::PortRange, u32> slot_of_;
  std::vector<u32> free_slots_;
  u32 next_slot_ = 0;

  Program program_;
  Program spare_;  ///< patch's output, swapped in; keeps its capacity
};

}  // namespace pclass::alg
