/// \file synthesis.hpp
/// Analytical FPGA-resource model standing in for Quartus synthesis
/// (Table V). We cannot run the vendor toolchain in this environment, so:
///
///   * block-memory bits are MEASURED: the sum of capacity_bits() over
///     every hw::Memory registered by the device;
///   * register bits are MEASURED from register files + pipeline stage
///     registers;
///   * logic (ALM) usage is ESTIMATED from per-structure coefficients
///     calibrated against the paper's Stratix V result (79,835 ALMs for
///     the full dual-algorithm classifier); the calibration is documented
///     in EXPERIMENTS.md and the coefficients are exposed so ablations can
///     vary them;
///   * fmax is a model parameter defaulting to the paper's 133.51 MHz.
///
/// The target device constants are those of the paper's Altera Stratix V
/// 5SGXMB6R3F43C4.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "hwsim/memory.hpp"
#include "hwsim/register_file.hpp"

namespace pclass::hw {

/// Capacity of the paper's target device (Table V denominators).
struct DeviceLimits {
  u64 alms = 225'400;
  u64 block_memory_bits = 54'476'800;
  u32 pins = 908;
};

/// Table V-shaped report.
struct SynthesisReport {
  u64 logic_alms = 0;
  u64 block_memory_bits = 0;
  u64 registers = 0;
  double fmax_mhz = 0.0;
  u32 pins_used = 0;
  DeviceLimits device{};

  [[nodiscard]] double memory_utilization() const {
    return static_cast<double>(block_memory_bits) /
           static_cast<double>(device.block_memory_bits);
  }
  [[nodiscard]] double logic_utilization() const {
    return static_cast<double>(logic_alms) /
           static_cast<double>(device.alms);
  }
};

/// Logic-estimate coefficients (ALMs per structural unit). Defaults are
/// calibrated so that the paper's full dual-algorithm configuration
/// reproduces Table V's 79,835 ALMs / 129,273 registers; see
/// EXPERIMENTS.md §Table V for the calibration arithmetic.
struct LogicCoefficients {
  double alm_per_memory_port = 1'200.0;  ///< decode, word mux, ecc glue
  double alm_per_register_bit = 2.8;     ///< parallel compare tree share
  double alm_per_pipeline_stage = 3'500.0;
  double alm_hash_unit = 4'000.0;
  double alm_control = 12'000.0;  ///< FSMs, update bus, config plane
  /// Flip-flops per ALM beyond the explicitly modelled register files
  /// (Stratix V designs typically sit near 1.5 registers/ALM).
  double regs_per_alm = 1.49;
};

/// Accumulates the structures of a device model and emits the report.
class SynthesisModel {
 public:
  explicit SynthesisModel(LogicCoefficients coeff = {},
                          DeviceLimits limits = {})
      : coeff_(coeff), limits_(limits) {}

  void add_memory(const Memory& m) { add_block(m.capacity_bits()); }
  /// A block memory modelled by its size alone.
  void add_block(u64 capacity_bits) {
    memory_bits_ += capacity_bits;
    ++memory_ports_;
  }
  void add_register_file(const RegisterFile& rf) {
    register_bits_ += rf.total_bits();
  }
  void add_pipeline_stages(u64 n, u64 stage_width_bits) {
    pipeline_stages_ += n;
    pipeline_register_bits_ += n * stage_width_bits;
  }
  void add_hash_units(u64 n) { hash_units_ += n; }
  void set_fmax_mhz(double f) { fmax_mhz_ = f; }
  void set_pins_used(u32 p) { pins_used_ = p; }

  [[nodiscard]] SynthesisReport report() const {
    SynthesisReport r;
    r.block_memory_bits = memory_bits_;
    r.logic_alms = static_cast<u64>(
        coeff_.alm_control +
        coeff_.alm_per_memory_port * static_cast<double>(memory_ports_) +
        coeff_.alm_per_register_bit * static_cast<double>(register_bits_) +
        coeff_.alm_per_pipeline_stage *
            static_cast<double>(pipeline_stages_) +
        coeff_.alm_hash_unit * static_cast<double>(hash_units_));
    r.registers =
        register_bits_ + pipeline_register_bits_ +
        static_cast<u64>(coeff_.regs_per_alm *
                         static_cast<double>(r.logic_alms));
    r.fmax_mhz = fmax_mhz_;
    r.pins_used = pins_used_;
    r.device = limits_;
    return r;
  }

 private:
  LogicCoefficients coeff_;
  DeviceLimits limits_;
  u64 memory_bits_ = 0;
  u64 memory_ports_ = 0;
  u64 register_bits_ = 0;
  u64 pipeline_stages_ = 0;
  u64 pipeline_register_bits_ = 0;
  u64 hash_units_ = 0;
  double fmax_mhz_ = 133.51;  // paper's measured maximum frequency
  u32 pins_used_ = 500;       // paper's Table V pin usage
};

}  // namespace pclass::hw
