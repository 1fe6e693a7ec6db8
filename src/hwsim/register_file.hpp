/// \file register_file.hpp
/// Register-bank model for the Port field lookup (§III.C: "Registers
/// utilized for Port field lookup contain information about the port
/// values defined in range, high value and low value of port field rule,
/// and the corresponding label").
///
/// Unlike block memory, all registers are compared *in parallel* in
/// hardware, so a lookup costs a fixed number of cycles regardless of the
/// register count, and is not counted as a memory access. Register bits
/// do count toward the synthesis register total (Table V).
#pragma once

#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "hwsim/cycle.hpp"
#include "hwsim/word.hpp"

namespace pclass::hw {

/// Bank of \p count registers of \p reg_bits bits each.
class RegisterFile {
 public:
  RegisterFile(std::string name, u32 count, unsigned reg_bits,
               unsigned compare_cycles = 2);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] u32 count() const { return count_; }
  [[nodiscard]] unsigned reg_bits() const { return reg_bits_; }
  [[nodiscard]] u64 total_bits() const { return u64{count_} * reg_bits_; }
  [[nodiscard]] unsigned compare_cycles() const { return compare_cycles_; }

  /// Peek a register (free: a register read is not a memory access).
  /// Inline, so a lookup that reads a register pays only the bounds
  /// check. \throws ConfigError on an index past the bank.
  [[nodiscard]] const Word& reg(u32 idx) const {
    if (idx >= count_) [[unlikely]] {
      throw_out_of_range(idx);
    }
    return regs_[idx];
  }

  /// Write a register (update path).
  void write(u32 idx, Word value);

  void clear();

  /// Charge the fixed parallel-compare cost of one lookup over the whole
  /// bank. Register reads are not memory accesses.
  void charge_lookup(CycleRecorder& rec) const {
    rec.charge(compare_cycles_, 0);
  }

  /// Number of registers currently holding valid data (high-water mark).
  [[nodiscard]] u32 used_count() const { return used_; }

 private:
  [[noreturn]] void throw_out_of_range(u32 idx) const;

  std::string name_;
  u32 count_;
  unsigned reg_bits_;
  unsigned compare_cycles_;
  std::vector<Word> regs_;
  u32 used_ = 0;
};

}  // namespace pclass::hw
