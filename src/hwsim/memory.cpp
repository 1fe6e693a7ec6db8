#include "hwsim/memory.hpp"

#include <algorithm>

namespace pclass::hw {

Memory::Memory(std::string name, u32 depth, unsigned word_bits,
               unsigned read_cycles)
    : name_(std::move(name)),
      depth_(depth),
      word_bits_(word_bits),
      read_cycles_(read_cycles),
      storage_(word_bits <= 32   ? Storage::kU32
               : word_bits <= 64 ? Storage::kU64
                                 : Storage::kU128) {
  if (depth == 0) {
    throw ConfigError("Memory '" + name_ + "': depth must be > 0");
  }
  if (word_bits == 0 || word_bits > 128) {
    throw ConfigError("Memory '" + name_ +
                      "': word_bits must be in [1, 128]");
  }
  clear();
}

void Memory::throw_out_of_range(u32 addr) const {
  throw ConfigError("Memory '" + name_ + "': address " +
                    std::to_string(addr) + " out of range (depth " +
                    std::to_string(depth_) + ")");
}

void Memory::write(u32 addr, Word value) {
  if (addr >= depth_) {
    throw_out_of_range(addr);
  }
  const bool fits = word_bits_ >= 64
                        ? word_bits_ == 128 ||
                              (value.hi >> (word_bits_ - 64)) == 0
                        : value.hi == 0 && (value.lo >> word_bits_) == 0;
  if (!fits) {
    throw ConfigError("Memory '" + name_ + "': value wider than " +
                      std::to_string(word_bits_) + " bits at address " +
                      std::to_string(addr));
  }
  ++writes_;
  switch (storage_) {
    case Storage::kU32:
      narrow_[addr] = static_cast<u32>(value.lo);
      break;
    case Storage::kU64:
      wide_[addr] = value.lo;
      break;
    case Storage::kU128:
      wide_[2 * usize{addr}] = value.lo;
      wide_[2 * usize{addr} + 1] = value.hi;
      break;
  }
  used_words_ = std::max<u64>(used_words_, u64{addr} + 1);
}

void Memory::clear() {
  if (storage_ == Storage::kU32) {
    narrow_.assign(depth_, 0);
  } else {
    wide_.assign(storage_ == Storage::kU64 ? usize{depth_} : 2 * usize{depth_},
                 0);
  }
  used_words_ = 0;
}

}  // namespace pclass::hw
