#include "alg/protocol_lut.hpp"

#include "common/error.hpp"

namespace pclass::alg {

namespace {
// LUT word: valid(1) label(2). Wildcard register: valid(1) label(2).
constexpr unsigned kWordBits = 1 + kProtoLabelBits;

hw::Word encode(bool valid, Label l) {
  hw::WordPacker p;
  p.push(valid ? 1 : 0, 1);
  p.push(valid ? l.value : 0, kProtoLabelBits);
  return p.word();
}
}  // namespace

ProtocolLut::ProtocolLut(const std::string& name)
    : lut_(name + ".lut", 256, kWordBits, /*read_cycles=*/1),
      wc_reg_(name + ".wc", 1, kWordBits, /*compare_cycles=*/0) {}

void ProtocolLut::insert(ruleset::ProtoMatch match, Label label,
                         hw::CommandLog& log) {
  if (match.wildcard) {
    hw::WordUnpacker u(wc_reg_.reg(0));
    if (u.pull(1) != 0) {
      throw InternalError("ProtocolLut: wildcard label already programmed");
    }
    log.register_write(wc_reg_, 0, encode(true, label));
    return;
  }
  hw::WordUnpacker u(lut_.read(match.value, nullptr));
  if (u.pull(1) != 0) {
    throw InternalError("ProtocolLut: duplicate protocol insert");
  }
  log.memory_write(lut_, match.value, encode(true, label));
}

void ProtocolLut::remove(ruleset::ProtoMatch match, hw::CommandLog& log) {
  if (match.wildcard) {
    hw::WordUnpacker u(wc_reg_.reg(0));
    if (u.pull(1) == 0) {
      throw InternalError("ProtocolLut: wildcard label not programmed");
    }
    log.register_write(wc_reg_, 0, encode(false, {}));
    return;
  }
  hw::WordUnpacker u(lut_.read(match.value, nullptr));
  if (u.pull(1) == 0) {
    throw InternalError("ProtocolLut: remove of unknown protocol");
  }
  log.memory_write(lut_, match.value, encode(false, {}));
}

void ProtocolLut::clear(hw::CommandLog& log) {
  for (u32 v = 0; v < lut_.depth(); ++v) {
    if (hw::WordUnpacker u(lut_.read(v, nullptr)); u.pull(1) != 0) {
      log.memory_write(lut_, v, encode(false, {}));
    }
  }
  if (hw::WordUnpacker u(wc_reg_.reg(0)); u.pull(1) != 0) {
    log.register_write(wc_reg_, 0, encode(false, {}));
  }
}

std::vector<Label> ProtocolLut::lookup(u8 proto,
                                       hw::CycleRecorder* rec) const {
  LabelVec scratch;
  lookup_into(proto, rec, scratch);
  return std::vector<Label>(scratch.begin(), scratch.end());
}

void ProtocolLut::lookup_into(u8 proto, hw::CycleRecorder* rec,
                              LabelVec& out) const {
  hw::WordUnpacker u(lut_.read(proto, rec));
  if (u.pull(1) != 0) {
    out.push_back(Label{static_cast<u16>(u.pull(kProtoLabelBits))});
  }
  // The wildcard register is read in the same cycle (no extra cost).
  hw::WordUnpacker w(wc_reg_.reg(0));
  if (w.pull(1) != 0) {
    out.push_back(Label{static_cast<u16>(w.pull(kProtoLabelBits))});
  }
}

Label ProtocolLut::lookup_first(u8 proto, hw::CycleRecorder* rec) const {
  hw::WordUnpacker u(lut_.read(proto, rec));
  if (u.pull(1) != 0) {
    return Label{static_cast<u16>(u.pull(kProtoLabelBits))};
  }
  hw::WordUnpacker w(wc_reg_.reg(0));
  if (w.pull(1) != 0) {
    return Label{static_cast<u16>(w.pull(kProtoLabelBits))};
  }
  return Label{};
}

}  // namespace pclass::alg
