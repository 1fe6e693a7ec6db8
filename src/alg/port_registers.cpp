#include "alg/port_registers.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>

#include "common/error.hpp"

namespace pclass::alg {

namespace {

constexpr unsigned kRegBits = 1 + 16 + 16 + kPortLabelBits;  // 40
constexpr u32 kPortSpaceEnd = 0x10000;

/// One decoded register word.
struct PortMatch {
  bool valid;
  ruleset::PortRange range;
  Label label;
};

PortMatch decode(const hw::Word& w) {
  hw::WordUnpacker u(w);
  const bool valid = u.pull(1) != 0;
  const auto lo = static_cast<u16>(u.pull(16));
  const auto hi = static_cast<u16>(u.pull(16));
  return {valid, {lo, hi}, Label{static_cast<u16>(u.pull(kPortLabelBits))}};
}

/// Table IV order as one integer: exact match first, then tightest
/// range (both are ascending width), label value as a deterministic
/// tiebreak.
u32 rank_key(ruleset::PortRange r, Label l) {
  return (u32{r.hi} - r.lo) << 16 | l.value;
}

/// Range \p rank of the Table IV order opens or closes at port \p at
/// (its lo, or its hi + 1).
struct Boundary {
  u32 at;
  u32 rank;
};

}  // namespace

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
  patch(range, label, /*add=*/true);
}

void PortRegisterFile::remove(ruleset::PortRange range,
                              hw::CommandLog& log) {
  const auto it = slot_of_.find(range);
  if (it == slot_of_.end()) {
    throw InternalError("PortRegisterFile: remove of unknown range");
  }
  const u32 slot = it->second;
  const Label label = decode(regs_.reg(slot)).label;
  slot_of_.erase(it);
  free_slots_.push_back(slot);
  log.register_write(regs_, slot, encode(false, {}, {}));
  patch(range, label, /*add=*/false);
}

void PortRegisterFile::clear(hw::CommandLog& log) {
  for (const auto& [range, slot] : slot_of_) {
    log.register_write(regs_, slot, encode(false, {}, {}));
  }
  slot_of_.clear();
  free_slots_.clear();
  next_slot_ = 0;
  compile(program_);
}

void PortRegisterFile::patch(ruleset::PortRange r, Label label, bool add) {
  const u32 lo = r.lo;
  const u32 end = u32{r.hi} + 1;  // kPortSpaceEnd: no bound of its own
  const u32 key = rank_key(r, label);
  const Program& from = program_;
  Program& to = spare_;
  const usize n = from.starts.size();
  const auto interval_of = [&from](u32 port) {
    return static_cast<usize>(std::upper_bound(from.starts.begin(),
                                               from.starts.end(), port) -
                              from.starts.begin() - 1);
  };
  // Only the intervals r overlaps change, and the one starting at r's
  // end (its bound count moves); the rest is copied in bulk.
  const usize k_first = interval_of(lo);
  usize k_stop = interval_of(r.hi) + 1;
  if (k_stop < n && from.starts[k_stop] == end) {
    ++k_stop;
  }

  const u32 head = from.offsets[k_first];
  to.starts.assign(from.starts.begin(), from.starts.begin() + k_first);
  to.bounds.assign(from.bounds.begin(), from.bounds.begin() + k_first);
  to.offsets.assign(from.offsets.begin(), from.offsets.begin() + k_first + 1);
  to.labels.assign(from.labels.begin(), from.labels.begin() + head);
  to.ranks.assign(from.ranks.begin(), from.ranks.begin() + head);

  for (usize k = k_first; k < k_stop; ++k) {
    const u32 s = from.starts[k];
    const u32 e = k + 1 < n ? from.starts[k + 1] : kPortSpaceEnd;
    // Interval k's pieces: itself, cut on insert at whichever of r's
    // bounds falls strictly inside it (lo before end).
    std::array<u32, 3> cuts{s};
    usize pieces = 1;
    if (add && s < lo && lo < e) cuts[pieces++] = lo;
    if (add && s < end && end < e) cuts[pieces++] = end;
    const u32 first = from.offsets[k];
    const u32 last = from.offsets[k + 1];

    for (usize c = 0; c < pieces; ++c) {
      const u32 at = cuts[c];
      const u32 own = u32{at == lo} + u32{at == end};
      const u32 held = c == 0 ? from.bounds[k] : 0;
      const u32 bounds = add ? held + own : held - own;
      if (bounds == 0 && at != 0) {
        // r held the last bound here: with its label gone both sides
        // match the same ranges, so the previous interval absorbs this.
        continue;
      }
      to.starts.push_back(at);
      to.bounds.push_back(bounds);
      if (at < lo || at >= end) {
        to.labels.insert(to.labels.end(), from.labels.begin() + first,
                         from.labels.begin() + last);
        to.ranks.insert(to.ranks.end(), from.ranks.begin() + first,
                        from.ranks.begin() + last);
      } else {
        // Covered: add r's label at its rank (after equal keys) or drop
        // one copy of it.
        bool done = false;
        for (u32 i = first; i < last; ++i) {
          if (!done && add && from.ranks[i] > key) {
            to.labels.push_back(label);
            to.ranks.push_back(key);
            done = true;
          } else if (!done && !add && from.ranks[i] == key) {
            done = true;
            continue;
          }
          to.labels.push_back(from.labels[i]);
          to.ranks.push_back(from.ranks[i]);
        }
        if (!done && add) {
          to.labels.push_back(label);
          to.ranks.push_back(key);
        }
      }
      to.offsets.push_back(static_cast<u32>(to.labels.size()));
    }
  }

  // The intervals after the patched ones keep their spans, moved by the
  // labels gained or lost (unsigned wrap-around subtracts).
  const u32 tail = from.offsets[k_stop];
  const u32 moved = static_cast<u32>(to.labels.size()) - tail;
  to.starts.insert(to.starts.end(), from.starts.begin() + k_stop,
                   from.starts.end());
  to.bounds.insert(to.bounds.end(), from.bounds.begin() + k_stop,
                   from.bounds.end());
  for (usize k = k_stop + 1; k <= n; ++k) {
    to.offsets.push_back(from.offsets[k] + moved);
  }
  to.labels.insert(to.labels.end(), from.labels.begin() + tail,
                   from.labels.end());
  to.ranks.insert(to.ranks.end(), from.ranks.begin() + tail,
                  from.ranks.end());
  std::swap(program_, spare_);
  assert(program_matches_registers());
}

void PortRegisterFile::compile(Program& out) const {
  // Decode what is programmed, not the controller's slot map, so the
  // program is a pure function of the register words.
  std::vector<PortMatch> ranges;
  for (u32 i = 0; i < regs_.used_count(); ++i) {
    const PortMatch m = decode(regs_.reg(i));
    if (m.valid) {
      ranges.push_back(m);
    }
  }
  std::sort(ranges.begin(), ranges.end(),
            [](const PortMatch& a, const PortMatch& b) {
              return rank_key(a.range, a.label) < rank_key(b.range, b.label);
            });

  std::vector<Boundary> bounds;
  bounds.reserve(2 * ranges.size());
  for (u32 k = 0; k < ranges.size(); ++k) {
    bounds.push_back({ranges[k].range.lo, k});
    bounds.push_back({u32{ranges[k].range.hi} + 1, k});
  }
  std::sort(bounds.begin(), bounds.end(),
            [](const Boundary& a, const Boundary& b) { return a.at < b.at; });

  // Sweep the boundaries left to right. The open ranges are a bitset
  // over ranks (a range's two bounds toggle its bit), so reading it low
  // bit first gives the interval's labels in Table IV order.
  out.starts.clear();
  out.bounds.clear();
  out.offsets.assign(1, 0);
  out.labels.clear();
  out.ranks.clear();
  std::vector<u64> open((ranges.size() + 63) / 64);
  usize b = 0;
  u32 at = 0;
  while (true) {
    u32 here = 0;
    for (; b < bounds.size() && bounds[b].at == at; ++b, ++here) {
      open[bounds[b].rank / 64] ^= u64{1} << (bounds[b].rank % 64);
    }
    out.starts.push_back(at);
    out.bounds.push_back(here);
    for (usize w = 0; w < open.size(); ++w) {
      for (u64 bits = open[w]; bits != 0; bits &= bits - 1) {
        const PortMatch& m = ranges[w * 64 + std::countr_zero(bits)];
        out.labels.push_back(m.label);
        out.ranks.push_back(rank_key(m.range, m.label));
      }
    }
    out.offsets.push_back(static_cast<u32>(out.labels.size()));
    if (b == bounds.size() || bounds[b].at >= kPortSpaceEnd) {
      break;
    }
    at = bounds[b].at;
  }
}

bool PortRegisterFile::program_matches_registers() const {
  Program rebuilt;
  compile(rebuilt);
  return rebuilt == program_;
}

}  // namespace pclass::alg
