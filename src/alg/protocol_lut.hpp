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
/// clock cycle").
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/small_vec.hpp"
#include "common/types.hpp"
#include "hwsim/memory.hpp"
#include "hwsim/register_file.hpp"
#include "hwsim/update_bus.hpp"
#include "ruleset/rule.hpp"

namespace pclass::alg {

/// Protocol-dimension engine.
class ProtocolLut {
 public:
  explicit ProtocolLut(const std::string& name);

  ProtocolLut(const ProtocolLut&) = delete;
  ProtocolLut& operator=(const ProtocolLut&) = delete;

  // ---- controller-side update path ----

  /// Program \p match -> \p label (one LUT word, or the wildcard
  /// register).
  void insert(ruleset::ProtoMatch match, Label label, hw::CommandLog& log);

  void remove(ruleset::ProtoMatch match, hw::CommandLog& log);

  void clear(hw::CommandLog& log);

  // ---- hardware-side lookup path ----

  /// Append the matching labels for protocol byte \p proto to \p out:
  /// [exact?, wildcard?].
  void lookup_into(u8 proto, hw::CycleRecorder* rec, LabelVec& out) const;

  [[nodiscard]] Label lookup_first(u8 proto, hw::CycleRecorder* rec) const;

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
