/// \file memory.hpp
/// Block-RAM model. Every persistent datum in the architecture (trie
/// nodes, BST nodes, label lists, protocol LUT, rule filter) lives in a
/// named hw::Memory so that the paper's "memory space" and "memory
/// accesses" columns are *measured* quantities.
///
/// The host stores each word at its declared width: one u32 per word up
/// to 32 bits (label-list words, MBT entries), one u64 up to 64 bits (the
/// shared MBT/BST block), two u64 above that (the Rule Filter). read()
/// and write() exchange the full hw::Word either way; write() rejects a
/// value with bits at or above word_bits, so the narrower storage never
/// truncates.
#pragma once

#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "hwsim/cycle.hpp"
#include "hwsim/word.hpp"

namespace pclass::hw {

/// Lifetime statistics of one memory block's *update path*. Lookup-path
/// reads are deliberately not tracked here: they are charged into the
/// caller's CycleRecorder, which travels the lookup path per worker, so
/// N dataplane workers reading one frozen snapshot never contend on a
/// shared counter cache line (they used to, via relaxed fetch_adds).
struct MemoryStats {
  u64 writes = 0;
};

/// A single-port block memory: \p depth words of \p word_bits bits.
///
/// Reads charge one memory access and \p read_cycles clock cycles into the
/// supplied CycleRecorder (a nullptr recorder is allowed for debug /
/// controller-side peeking, which models the software shadow copy and is
/// *not* counted).
class Memory {
 public:
  /// \throws ConfigError for zero geometry or word_bits > 128.
  Memory(std::string name, u32 depth, unsigned word_bits,
         unsigned read_cycles = 1);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] u32 depth() const { return depth_; }
  [[nodiscard]] unsigned word_bits() const { return word_bits_; }
  [[nodiscard]] unsigned read_cycles() const { return read_cycles_; }

  /// Physical capacity in bits (depth * word_bits) — what synthesis
  /// would allocate in block RAM.
  [[nodiscard]] u64 capacity_bits() const {
    return u64{depth_} * word_bits_;
  }

  /// Bits actually holding live data (high-water mark of written words).
  [[nodiscard]] u64 used_bits() const { return used_words_ * word_bits_; }
  [[nodiscard]] u64 used_words() const { return used_words_; }

  /// Hardware-path read: charges cost into \p rec when non-null.
  /// \throws ConfigError on out-of-range address.
  [[nodiscard]] Word read(u32 addr, CycleRecorder* rec) const {
    if (addr >= depth_) [[unlikely]] {
      throw_out_of_range(addr);
    }
    charge_reads(1, rec);
    switch (storage_) {
      case Storage::kU32: return Word{narrow_[addr], 0};
      case Storage::kU64: return Word{wide_[addr], 0};
      case Storage::kU128: break;
    }
    return Word{wide_[2 * usize{addr}], wide_[2 * usize{addr} + 1]};
  }

  /// Charge what reading \p words words costs without reading them, for
  /// a structure whose host index already holds what those words encode
  /// (LabelListStore's label array).
  void charge_reads(u64 words, CycleRecorder* rec) const {
    if (rec != nullptr) {
      rec->charge(words * read_cycles_, words);
    }
  }

  /// Hardware-path write (one cycle on the update bus is charged by the
  /// caller; the memory itself just stores and counts).
  /// \throws ConfigError on out-of-range address or a value with bits at
  ///         or above word_bits.
  void write(u32 addr, Word value);

  /// Clear contents and high-water mark (reconfiguration flush).
  void clear();

  [[nodiscard]] MemoryStats stats() const {
    return MemoryStats{writes_};
  }
  void reset_stats() { writes_ = 0; }

 private:
  /// Host word width: the narrowest of u32, u64 and two u64 that holds
  /// word_bits.
  enum class Storage : u8 { kU32, kU64, kU128 };

  [[noreturn]] void throw_out_of_range(u32 addr) const;

  std::string name_;
  u32 depth_;
  unsigned word_bits_;
  unsigned read_cycles_;
  Storage storage_;
  std::vector<u32> narrow_;  ///< kU32: word addr
  std::vector<u64> wide_;    ///< kU64: word addr; kU128: lo, hi at 2 * addr
  u64 used_words_ = 0;
  // Plain counter: writes happen only on the serialized update path
  // (the publisher holds the writer lock; a replica is never written
  // while readers hold it). The read path keeps no shared state at all.
  u64 writes_ = 0;
};

}  // namespace pclass::hw
