/// \file cycle_model.hpp
/// Throughput model tying the measured cycles-per-packet to line rate
/// (Tables VI/VII and the §VI conclusion): at fmax = 133.51 MHz a fully
/// pipelined MBT lookup sustains 133.51 M lookups/s, i.e. 42.7 Gbps of
/// 40-byte packets or >100 Gbps of 100-byte packets.
///
/// Cycle-charging contract these conversions rest on (see
/// core::ClassifyResult): `cycles_per_packet` is the end-to-end latency
/// of one lookup as accumulated by hw::CycleRecorder charges — 1 cycle
/// of header split, plus the *maximum* over the 7 parallel dimension
/// engines (each memory read charges its block's read_cycles and one
/// access), plus the serial tail (1 cycle label merge, one cycle and
/// one read per combine prefix check, then per Rule Filter probe: one
/// hash cycle and one read per slot walked).
#pragma once

#include "common/types.hpp"

namespace pclass::core {

/// Converts cycle costs into rates at the model clock.
struct ThroughputModel {
  double fmax_mhz = 133.51;

  /// Lookups per second (millions) at \p cycles_per_packet.
  [[nodiscard]] double mega_lookups_per_sec(double cycles_per_packet) const {
    return cycles_per_packet <= 0.0 ? 0.0 : fmax_mhz / cycles_per_packet;
  }

  /// Line rate in Gbps for back-to-back packets of \p packet_bytes.
  [[nodiscard]] double gbps(double cycles_per_packet,
                            u32 packet_bytes) const {
    return mega_lookups_per_sec(cycles_per_packet) * 1e6 *
           static_cast<double>(packet_bytes) * 8.0 / 1e9;
  }

  /// Rules per second for an update costing \p cycles_per_rule.
  [[nodiscard]] double updates_per_sec(double cycles_per_rule) const {
    return cycles_per_rule <= 0.0 ? 0.0 : fmax_mhz * 1e6 / cycles_per_rule;
  }
};

}  // namespace pclass::core
