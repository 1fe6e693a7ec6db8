/// \file protocol_lut.hpp
/// Protocol-field lookup (§III.C: "a simple Look-Up Table is utilized for
/// Protocol. The protocol value addresses the table where the label is
/// contained"). A 256-word memory maps the protocol byte to its exact
/// label; the wildcard label (a rule with protocol ANY) lives in a single
/// side register so programming it costs one write, not 256.
///
/// List order (§III.C.1): "The priority label for Protocol lookup is
/// determined by the exact matching value" — exact label first, wildcard
/// second. Lookup is a single memory access (§V.B: "executed in a single
/// clock cycle"); the wildcard register is read in the same cycle, inline
/// and free, and the at most two labels come back by value.
#pragma once

#include <array>
#include <span>
#include <string>

#include "common/types.hpp"
#include "hwsim/memory.hpp"
#include "hwsim/register_file.hpp"
#include "hwsim/update_bus.hpp"
#include "ruleset/rule.hpp"

namespace pclass::alg {

/// The labels one protocol lookup yields, in list order: [exact?,
/// wildcard?].
struct ProtoLabels {
  std::array<Label, 2> slot;
  u32 size = 0;

  [[nodiscard]] std::span<const Label> span() const& {
    return {slot.data(), size};
  }
  /// A span of a temporary would dangle (a range-for over
  /// `lookup(...).span()` reads freed stack).
  std::span<const Label> span() const&& = delete;
};

/// Protocol-dimension engine.
class ProtocolLut {
 public:
  explicit ProtocolLut(const std::string& name);

  // ---- controller-side update path ----

  /// Program \p match -> \p label (one LUT word, or the wildcard
  /// register).
  void insert(ruleset::ProtoMatch match, Label label, hw::CommandLog& log);

  void remove(ruleset::ProtoMatch match, hw::CommandLog& log);

  void clear(hw::CommandLog& log);

  // ---- hardware-side lookup path ----

  /// The matching labels for protocol byte \p proto. Charges the one
  /// LUT read; the wildcard register is compared in the same cycle.
  [[nodiscard]] ProtoLabels lookup(u8 proto, hw::CycleRecorder* rec) const {
    ProtoLabels out;
    hw::WordUnpacker u(lut_.read(proto, rec));
    if (u.pull(1) != 0) {
      out.slot[out.size++] = Label{static_cast<u16>(u.pull(kProtoLabelBits))};
    }
    hw::WordUnpacker w(wc_reg_.reg(0));
    if (w.pull(1) != 0) {
      out.slot[out.size++] = Label{static_cast<u16>(w.pull(kProtoLabelBits))};
    }
    return out;
  }

  /// First (highest-priority) matching label only. Same cost as lookup().
  [[nodiscard]] Label lookup_first(u8 proto, hw::CycleRecorder* rec) const {
    const ProtoLabels m = lookup(proto, rec);
    return m.size == 0 ? Label{} : m.slot[0];
  }

  // ---- introspection ----

  [[nodiscard]] const hw::Memory& memory() const { return lut_; }
  [[nodiscard]] const hw::RegisterFile& wildcard_register() const {
    return wc_reg_;
  }

 private:
  hw::Memory lut_;
  hw::RegisterFile wc_reg_;
};

}  // namespace pclass::alg
