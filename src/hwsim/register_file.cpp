#include "hwsim/register_file.hpp"

namespace pclass::hw {

RegisterFile::RegisterFile(std::string name, u32 count, unsigned reg_bits,
                           unsigned compare_cycles)
    : name_(std::move(name)),
      count_(count),
      reg_bits_(reg_bits),
      compare_cycles_(compare_cycles),
      regs_(count) {
  if (count == 0) {
    throw ConfigError("RegisterFile '" + name_ + "': count must be > 0");
  }
  if (reg_bits == 0 || reg_bits > 128) {
    throw ConfigError("RegisterFile '" + name_ +
                      "': reg_bits must be in [1, 128]");
  }
}

void RegisterFile::throw_out_of_range(u32 idx) const {
  throw ConfigError("RegisterFile '" + name_ + "': index " +
                    std::to_string(idx) + " out of range (count " +
                    std::to_string(count_) + ")");
}

void RegisterFile::write(u32 idx, Word value) {
  if (idx >= count_) {
    throw_out_of_range(idx);
  }
  regs_[idx] = value;
  used_ = std::max(used_, idx + 1);
}

void RegisterFile::clear() {
  regs_.assign(count_, Word{});
  used_ = 0;
}

}  // namespace pclass::hw
