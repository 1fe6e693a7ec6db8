#include "alg/port_registers.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace pclass::alg {

namespace {
constexpr unsigned kRegBits = 1 + 16 + 16 + kPortLabelBits;  // 40
}

PortRegisterFile::PortRegisterFile(const std::string& name,
                                   PortRegistersConfig cfg)
    : regs_(name, cfg.count, kRegBits, cfg.compare_cycles) {}

hw::Word PortRegisterFile::encode(bool valid, ruleset::PortRange r,
                                  Label l) {
  hw::WordPacker p;
  p.push(valid ? 1 : 0, 1);
  p.push(r.lo, 16);
  p.push(r.hi, 16);
  p.push(valid ? l.value : 0, kPortLabelBits);
  return p.word();
}

void PortRegisterFile::insert(ruleset::PortRange range, Label label,
                              hw::CommandLog& log) {
  if (slot_of_.contains(range)) {
    throw InternalError("PortRegisterFile: duplicate range insert");
  }
  u32 slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    if (next_slot_ >= regs_.count()) {
      throw CapacityError("PortRegisterFile '" + regs_.name() +
                          "': all " + std::to_string(regs_.count()) +
                          " registers in use");
    }
    slot = next_slot_++;
  }
  slot_of_.emplace(range, slot);
  log.register_write(regs_, slot, encode(true, range, label));
}

void PortRegisterFile::remove(ruleset::PortRange range,
                              hw::CommandLog& log) {
  const auto it = slot_of_.find(range);
  if (it == slot_of_.end()) {
    throw InternalError("PortRegisterFile: remove of unknown range");
  }
  const u32 slot = it->second;
  slot_of_.erase(it);
  free_slots_.push_back(slot);
  log.register_write(regs_, slot, encode(false, {}, {}));
}

void PortRegisterFile::clear(hw::CommandLog& log) {
  for (const auto& [range, slot] : slot_of_) {
    log.register_write(regs_, slot, encode(false, {}, {}));
  }
  slot_of_.clear();
  free_slots_.clear();
  next_slot_ = 0;
}

namespace {

/// One decoded matching register, ordered per Table IV: exact match
/// first, then tightest range, label value as a deterministic tiebreak.
struct PortMatch {
  u32 width;
  bool exact;
  Label label;

  [[nodiscard]] bool before(const PortMatch& o) const {
    if (exact != o.exact) return exact;
    if (width != o.width) return width < o.width;
    return label.value < o.label.value;
  }
};

}  // namespace

std::vector<Label> PortRegisterFile::lookup(u16 port,
                                            hw::CycleRecorder* rec) const {
  LabelVec scratch;
  lookup_into(port, rec, scratch);
  return std::vector<Label>(scratch.begin(), scratch.end());
}

void PortRegisterFile::lookup_into(u16 port, hw::CycleRecorder* rec,
                                   LabelVec& out) const {
  if (rec != nullptr) {
    regs_.charge_lookup(*rec);
  }
  // Model of the parallel compare + priority network: decode every valid
  // register word (hardware does this combinationally).
  SmallVec<PortMatch, 16> matches;
  for (u32 i = 0; i < regs_.used_count(); ++i) {
    hw::WordUnpacker u(regs_.reg(i));
    if (u.pull(1) == 0) {
      continue;
    }
    const u16 lo = static_cast<u16>(u.pull(16));
    const u16 hi = static_cast<u16>(u.pull(16));
    const Label label{static_cast<u16>(u.pull(kPortLabelBits))};
    if (lo <= port && port <= hi) {
      matches.push_back({u32{hi} - lo + 1, lo == hi, label});
    }
  }
  std::sort(matches.begin(), matches.end(),
            [](const PortMatch& a, const PortMatch& b) {
              return a.before(b);
            });
  for (const PortMatch& m : matches) {
    out.push_back(m.label);
  }
}

Label PortRegisterFile::lookup_first(u16 port,
                                     hw::CycleRecorder* rec) const {
  if (rec != nullptr) {
    regs_.charge_lookup(*rec);
  }
  // Same priority network as lookup_into, tracking only the winner.
  bool found = false;
  PortMatch best{};
  for (u32 i = 0; i < regs_.used_count(); ++i) {
    hw::WordUnpacker u(regs_.reg(i));
    if (u.pull(1) == 0) {
      continue;
    }
    const u16 lo = static_cast<u16>(u.pull(16));
    const u16 hi = static_cast<u16>(u.pull(16));
    const Label label{static_cast<u16>(u.pull(kPortLabelBits))};
    if (lo <= port && port <= hi) {
      const PortMatch m{u32{hi} - lo + 1, lo == hi, label};
      if (!found || m.before(best)) {
        best = m;
        found = true;
      }
    }
  }
  return found ? best.label : Label{};
}

}  // namespace pclass::alg
