/// \file update_bus.hpp
/// Model of the controller-to-device update path (§V.A): memory uploads
/// are pin-limited, so a rule upload takes "two clock cycles per rule; one
/// cycle to store source information and one clock cycle to store
/// destination information", plus "an additional clock cycle ... to obtain
/// the rule address using hash function".
///
/// The controller-side builders apply every device write through a
/// CommandLog, which meters each command on the bus as it is emitted:
/// one bus cycle per command, counted by target. The update cost the
/// Fig.4/§V.A bench reports is therefore the *measured* number of
/// commands, with nothing recorded beyond the counts.
#pragma once

#include "common/types.hpp"
#include "hwsim/memory.hpp"
#include "hwsim/register_file.hpp"

namespace pclass::hw {

/// Cost/statistics of applying a command batch.
struct UpdateStats {
  u64 commands = 0;
  u64 cycles = 0;
  u64 memory_writes = 0;
  u64 register_writes = 0;
  u64 hash_computes = 0;
  u64 config_toggles = 0;
  /// Combine prefix-table entries flipped present/absent (no cycles:
  /// see CommandLog::prefix_entry).
  u64 prefix_writes = 0;

  friend bool operator==(const UpdateStats&, const UpdateStats&) = default;

  UpdateStats& operator+=(const UpdateStats& o) {
    commands += o.commands;
    cycles += o.cycles;
    memory_writes += o.memory_writes;
    register_writes += o.register_writes;
    hash_computes += o.hash_computes;
    config_toggles += o.config_toggles;
    prefix_writes += o.prefix_writes;
    return *this;
  }
};

/// Applies the command stream of one controller update batch to the
/// device structures and meters it. The controller-side builders mutate
/// hardware state exclusively through a CommandLog, so the cycle cost of
/// an update is always the measured number of emitted commands (the
/// paper's "binary files" of §IV.A, replayed over the pin-limited bus of
/// §V.A). Each command costs one bus cycle — the paper's
/// two-cycles-per-rule follows from rules compiling to two memory words
/// (source half + destination half).
class CommandLog {
 public:
  /// Write one memory word (one command).
  void memory_write(Memory& mem, u32 addr, Word w) {
    mem.write(addr, w);
    charge(stats_.memory_writes);
  }

  /// Write one register (one command).
  void register_write(RegisterFile& rf, u32 idx, Word w) {
    rf.write(idx, w);
    charge(stats_.register_writes);
  }

  /// Run the hardware hash unit for address generation (one command).
  void hash_compute() { charge(stats_.hash_computes); }

  /// Toggle a configuration select line, e.g. IPalg_s (one command).
  void config_toggle() { charge(stats_.config_toggles); }

  /// Count one combine prefix-table entry flipping present/absent. The
  /// device derives the prefix from the rule key it is storing or
  /// tombstoning, so the write rides that upload's beats: metered, but
  /// no command and no bus cycle of its own.
  void prefix_entry() { ++stats_.prefix_writes; }

  /// Everything emitted so far.
  [[nodiscard]] const UpdateStats& stats() const { return stats_; }
  /// Commands emitted so far.
  [[nodiscard]] u64 size() const { return stats_.commands; }

 private:
  void charge(u64& target) {
    ++stats_.commands;
    ++stats_.cycles;
    ++target;
  }

  UpdateStats stats_;
};

}  // namespace pclass::hw
