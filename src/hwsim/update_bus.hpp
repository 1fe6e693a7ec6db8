/// \file update_bus.hpp
/// Model of the controller-to-device update path (§V.A): memory uploads
/// are pin-limited, so a rule upload takes "two clock cycles per rule; one
/// cycle to store source information and one clock cycle to store
/// destination information", plus "an additional clock cycle ... to obtain
/// the rule address using hash function".
///
/// The UpdateCompiler (core/) emits UpdateCommand streams; this bus
/// applies them to the device memories and charges cycles, giving a
/// *measured* update cost that the Fig.4/§V.A bench reports.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "hwsim/memory.hpp"
#include "hwsim/register_file.hpp"

namespace pclass::hw {

/// What a command drives on the device.
enum class UpdateTarget : u8 {
  kMemoryWord,    ///< write one word of a block memory
  kRegister,      ///< write one register of a register file
  kHashCompute,   ///< run the hardware hash unit (1 cycle, no storage)
  kConfigSignal,  ///< toggle a select line (IPalg_s); 1 cycle
};

/// One atomic device write, produced by the controller ("binary files"
/// methodology of §IV.A).
struct UpdateCommand {
  UpdateTarget target = UpdateTarget::kMemoryWord;
  /// Symbolic destination (memory/register-file name, or signal name).
  std::string destination;
  u32 address = 0;
  Word data{};
};

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

/// Collects the command stream of one controller update batch while
/// applying it to the device structures. The controller-side builders
/// mutate hardware state exclusively through a CommandLog, so the cycle
/// cost of an update is always the *measured* number of emitted commands
/// (the paper's "binary files" of §IV.A, replayed over the pin-limited
/// bus of §V.A).
class CommandLog {
 public:
  /// Write one memory word and log the command.
  void memory_write(Memory& mem, u32 addr, Word w) {
    mem.write(addr, w);
    cmds_.push_back(
        {UpdateTarget::kMemoryWord, mem.name(), addr, w});
  }

  /// Write one register and log the command.
  void register_write(RegisterFile& rf, u32 idx, Word w) {
    rf.write(idx, w);
    cmds_.push_back({UpdateTarget::kRegister, rf.name(), idx, w});
  }

  /// Log a hardware hash computation (address generation; 1 cycle).
  void hash_compute(std::string unit) {
    cmds_.push_back({UpdateTarget::kHashCompute, std::move(unit), 0, {}});
  }

  /// Log a configuration-signal toggle (IPalg_s).
  void config_toggle(std::string signal, u64 value) {
    cmds_.push_back({UpdateTarget::kConfigSignal, std::move(signal), 0,
                     Word{value, 0}});
  }

  /// Count one combine prefix-table entry flipping present/absent. The
  /// device derives the prefix from the rule key it is storing or
  /// tombstoning, so the write rides that upload's beats: metered, but
  /// no command and no bus cycle of its own.
  void prefix_entry() { ++prefix_entries_; }

  [[nodiscard]] const std::vector<UpdateCommand>& commands() const {
    return cmds_;
  }
  [[nodiscard]] usize size() const { return cmds_.size(); }
  [[nodiscard]] u64 prefix_entries() const { return prefix_entries_; }

  /// Move the batch out (the device then meters it on the UpdateBus).
  [[nodiscard]] std::vector<UpdateCommand> take() {
    return std::move(cmds_);
  }

 private:
  std::vector<UpdateCommand> cmds_;
  u64 prefix_entries_ = 0;
};

/// The bus itself only meters cost; actual routing of commands to memories
/// is done by the device (core::ConfigurableClassifier), which owns the
/// name->block mapping. Each command costs one bus cycle — the paper's
/// two-cycles-per-rule follows from rules compiling to two memory words
/// (source half + destination half).
class UpdateBus {
 public:
  /// Charge one command.
  void charge(const UpdateCommand& cmd) {
    ++stats_.commands;
    ++stats_.cycles;
    switch (cmd.target) {
      case UpdateTarget::kMemoryWord: ++stats_.memory_writes; break;
      case UpdateTarget::kRegister: ++stats_.register_writes; break;
      case UpdateTarget::kHashCompute: ++stats_.hash_computes; break;
      case UpdateTarget::kConfigSignal: ++stats_.config_toggles; break;
    }
  }

  /// Meter \p n prefix-table entry flips (free; see CommandLog).
  void charge_prefix_writes(u64 n) { stats_.prefix_writes += n; }

  [[nodiscard]] const UpdateStats& stats() const { return stats_; }
  void reset_stats() { stats_ = UpdateStats{}; }

 private:
  UpdateStats stats_;
};

}  // namespace pclass::hw
