/// \file port_registers.hpp
/// Register-based port-field lookup (§III.C, Table IV): each unique port
/// range lives in one register holding {low, high, label}; all registers
/// compare against the packet's port in parallel (2 cycles, no memory
/// accesses). Matching labels are produced in the paper's priority order:
/// the exact-matching label first, then range matches from tightest to
/// widest ("The priority of Port labels is given by exact matching label
/// following by the tightest range matching label") — Table IV's example
/// orders B (exact 7812), C ([7810,7820]), A (full range) for port 7812.
#pragma once

#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/small_vec.hpp"
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

  PortRegisterFile(const PortRegisterFile&) = delete;
  PortRegisterFile& operator=(const PortRegisterFile&) = delete;

  // ---- controller-side update path ----

  /// Program one register with \p range -> \p label.
  /// \throws CapacityError when all registers are in use.
  void insert(ruleset::PortRange range, Label label, hw::CommandLog& log);

  /// Clear the register holding \p range.
  void remove(ruleset::PortRange range, hw::CommandLog& log);

  void clear(hw::CommandLog& log);

  // ---- hardware-side lookup path ----

  /// All labels whose range contains \p port, ordered exact-first then
  /// ascending range width (Table IV order). Charges the fixed parallel
  /// compare cost; register reads are not memory accesses.
  [[nodiscard]] std::vector<Label> lookup(u16 port,
                                          hw::CycleRecorder* rec) const;

  /// Allocation-free lookup(): appends the Table IV-ordered labels into
  /// caller-owned scratch (the classifier's per-packet hot path).
  void lookup_into(u16 port, hw::CycleRecorder* rec, LabelVec& out) const;

  /// First (highest-priority) matching label only — what the FirstLabel
  /// combiner consumes. Same cost as lookup(); no allocation.
  [[nodiscard]] Label lookup_first(u16 port, hw::CycleRecorder* rec) const;

  // ---- introspection ----

  [[nodiscard]] const hw::RegisterFile& registers() const { return regs_; }
  [[nodiscard]] usize range_count() const { return slot_of_.size(); }

 private:
  /// Register word layout (LSB first): valid(1) lo(16) hi(16) label(7).
  static hw::Word encode(bool valid, ruleset::PortRange r, Label l);

  hw::RegisterFile regs_;
  std::map<ruleset::PortRange, u32> slot_of_;
  std::vector<u32> free_slots_;
  u32 next_slot_ = 0;
};

}  // namespace pclass::alg
