#include "alg/port_registers.hpp"

#include <algorithm>
#include <bit>

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
  compile();
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
  compile();
}

void PortRegisterFile::clear(hw::CommandLog& log) {
  for (const auto& [range, slot] : slot_of_) {
    log.register_write(regs_, slot, encode(false, {}, {}));
  }
  slot_of_.clear();
  free_slots_.clear();
  next_slot_ = 0;
  compile();
}

namespace {

/// One decoded valid register, ordered per Table IV: exact match first,
/// then tightest range, label value as a deterministic tiebreak.
struct PortMatch {
  u32 lo;
  u32 hi;
  Label label;

  [[nodiscard]] bool exact() const { return lo == hi; }
  [[nodiscard]] u32 width() const { return hi - lo + 1; }
  [[nodiscard]] bool before(const PortMatch& o) const {
    if (exact() != o.exact()) return exact();
    if (width() != o.width()) return width() < o.width();
    return label.value < o.label.value;
  }
};

/// Range \p rank of the Table IV order opens or closes at port \p at
/// (its lo, or its hi + 1).
struct Boundary {
  u32 at;
  u32 rank;
};

}  // namespace

void PortRegisterFile::compile() {
  // Decode what is programmed, not the controller's slot map, so the
  // program is a pure function of the register words.
  std::vector<PortMatch> ranges;
  for (u32 i = 0; i < regs_.used_count(); ++i) {
    hw::WordUnpacker u(regs_.reg(i));
    if (u.pull(1) == 0) {
      continue;
    }
    const u32 lo = static_cast<u32>(u.pull(16));
    const u32 hi = static_cast<u32>(u.pull(16));
    const Label label{static_cast<u16>(u.pull(kPortLabelBits))};
    ranges.push_back({lo, hi, label});
  }
  std::sort(ranges.begin(), ranges.end(),
            [](const PortMatch& a, const PortMatch& b) {
              return a.before(b);
            });

  std::vector<Boundary> bounds;
  bounds.reserve(2 * ranges.size());
  for (u32 k = 0; k < ranges.size(); ++k) {
    bounds.push_back({ranges[k].lo, k});
    bounds.push_back({ranges[k].hi + 1, k});
  }
  std::sort(bounds.begin(), bounds.end(),
            [](const Boundary& a, const Boundary& b) { return a.at < b.at; });

  // Sweep the boundaries left to right. The open ranges are a bitset
  // over ranks (a range's two bounds toggle its bit), so reading it low
  // bit first gives the interval's labels in Table IV order.
  starts_.clear();
  offsets_.assign(1, 0);
  labels_.clear();
  std::vector<u64> open((ranges.size() + 63) / 64);
  usize b = 0;
  u32 at = 0;
  while (true) {
    for (; b < bounds.size() && bounds[b].at == at; ++b) {
      open[bounds[b].rank / 64] ^= u64{1} << (bounds[b].rank % 64);
    }
    starts_.push_back(at);
    for (usize w = 0; w < open.size(); ++w) {
      for (u64 bits = open[w]; bits != 0; bits &= bits - 1) {
        labels_.push_back(ranges[w * 64 + std::countr_zero(bits)].label);
      }
    }
    offsets_.push_back(static_cast<u32>(labels_.size()));
    if (b == bounds.size() || bounds[b].at > 0xFFFFu) {
      break;
    }
    at = bounds[b].at;
  }
}

std::span<const Label> PortRegisterFile::match(u16 port) const {
  const auto k = static_cast<usize>(
      std::upper_bound(starts_.begin(), starts_.end(), u32{port}) -
      starts_.begin() - 1);
  return std::span<const Label>(labels_).subspan(
      offsets_[k], offsets_[k + 1] - offsets_[k]);
}

std::vector<Label> PortRegisterFile::lookup(u16 port,
                                            hw::CycleRecorder* rec) const {
  if (rec != nullptr) {
    regs_.charge_lookup(*rec);
  }
  const std::span<const Label> m = match(port);
  return std::vector<Label>(m.begin(), m.end());
}

void PortRegisterFile::lookup_into(u16 port, hw::CycleRecorder* rec,
                                   LabelVec& out) const {
  if (rec != nullptr) {
    regs_.charge_lookup(*rec);
  }
  for (const Label l : match(port)) {
    out.push_back(l);
  }
}

Label PortRegisterFile::lookup_first(u16 port,
                                     hw::CycleRecorder* rec) const {
  if (rec != nullptr) {
    regs_.charge_lookup(*rec);
  }
  const std::span<const Label> m = match(port);
  return m.empty() ? Label{} : m.front();
}

}  // namespace pclass::alg
