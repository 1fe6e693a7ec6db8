#include "alg/range_vector_hash.hpp"

#include <algorithm>

#include "common/bits.hpp"
#include "common/hash.hpp"

namespace pclass::alg {

namespace {

constexpr unsigned kLenBits = 5;    // prefix length tag 0..16
constexpr unsigned kValueBits = 16;
constexpr unsigned kAddrBits = 16;
constexpr unsigned kWordBits = 1 + kLenBits + kValueBits + kAddrBits;

constexpr u64 kHashSalt = 0x5256482D76312D73ull;

// Entry word layout (LSB first): valid(1) length(5) value(16) list_addr(16).
hw::Word encode_entry(bool valid, u8 length, u16 value, u32 list_addr) {
  hw::WordPacker p;
  p.push(valid ? 1 : 0, 1);
  p.push(length, kLenBits);
  p.push(value, kValueBits);
  p.push(list_addr, kAddrBits);
  return p.word();
}

/// Value of the length-\p al ancestor of \p p (the masked key probed at
/// that range-vector signature).
u16 ancestor_value(ruleset::SegmentPrefix p, u8 al) {
  if (al == 0) return 0;
  return static_cast<u16>(p.value &
                          ~static_cast<u16>(mask_low(16u - al) & 0xFFFFu));
}

}  // namespace

RangeVectorHash::RangeVectorHash(const std::string& name, RvhConfig cfg,
                                 LabelListStore& lists, const Priority* prio)
    : cfg_(cfg),
      lists_(&lists),
      prio_(prio),
      mem_(name + ".rvh", cfg_.table_depth, kWordBits, cfg_.read_cycles) {
  // A zero table_depth is rejected by the table memory itself.
  if (lists_->memory().depth() > (u32{1} << kAddrBits)) {
    throw ConfigError("RangeVectorHash: list store too deep for address "
                      "field");
  }
  if (prio_ == nullptr) {
    throw ConfigError("RangeVectorHash: priority column required");
  }
  slots_.resize(cfg_.table_depth);
}

u32 RangeVectorHash::home_slot(ruleset::SegmentPrefix p) const {
  const u64 key = (u64{p.length} << kValueBits) | p.value;
  return static_cast<u32>(mix64(key ^ kHashSalt) % cfg_.table_depth);
}

u32 RangeVectorHash::find_slot(ruleset::SegmentPrefix p) const {
  u32 slot = home_slot(p);
  for (u32 probes = 0; probes < cfg_.table_depth; ++probes) {
    const SwEntry& e = slots_[slot];
    if (!e.valid) break;
    if (e.prefix == p) return slot;
    slot = (slot + 1) % cfg_.table_depth;
  }
  throw InternalError("RangeVectorHash: live prefix missing from table");
}

std::vector<Label> RangeVectorHash::compute_list(
    ruleset::SegmentPrefix p) const {
  // Leaf-pushed covering set: this prefix plus every live ancestor, in
  // the shared (priority, label value) order all engines agree on.
  std::vector<std::pair<Priority, u16>> keyed;
  for (u8 al = 0; al <= p.length; ++al) {
    const auto it =
        prefixes_.find(ruleset::SegmentPrefix{ancestor_value(p, al), al});
    if (it != prefixes_.end()) {
      keyed.emplace_back(prio_[it->second.value], it->second.value);
    }
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<Label> list;
  list.reserve(keyed.size());
  for (const auto& [prio, value] : keyed) {
    list.push_back(Label{value});
  }
  return list;
}

void RangeVectorHash::write_entry(u32 slot, hw::CommandLog& log) {
  const SwEntry& e = slots_[slot];
  log.memory_write(mem_, slot,
                   encode_entry(e.valid, e.prefix.length, e.prefix.value,
                                e.ref.addr));
}

void RangeVectorHash::place_entry(ruleset::SegmentPrefix p,
                                  const std::vector<Label>& list,
                                  hw::CommandLog& log) {
  u32 slot = home_slot(p);
  for (u32 probes = 0;; ++probes) {
    if (probes >= cfg_.table_depth) {
      throw CapacityError("RangeVectorHash '" + mem_.name() +
                          "': table full at depth " +
                          std::to_string(cfg_.table_depth));
    }
    if (!slots_[slot].valid) break;
    slot = (slot + 1) % cfg_.table_depth;
  }
  SwEntry& e = slots_[slot];
  e.valid = true;
  e.prefix = p;
  e.ref = lists_->acquire(list, log);
  ++live_entries_;
  // §V.A: one hash-unit cycle to obtain the entry address, then the word.
  log.hash_compute();
  write_entry(slot, log);
}

void RangeVectorHash::erase_entry(ruleset::SegmentPrefix p,
                                  hw::CommandLog& log) {
  u32 hole = find_slot(p);
  lists_->release(slots_[hole].ref);
  slots_[hole] = SwEntry{};
  --live_entries_;
  // Backward-shift cluster repair: keep "probe until invalid" exact
  // without tombstones. Each relocated entry is one word rewrite; the
  // final hole is invalidated last.
  u32 j = hole;
  while (true) {
    j = (j + 1) % cfg_.table_depth;
    if (!slots_[j].valid) break;
    const u32 h = home_slot(slots_[j].prefix);
    const u32 dist_home = (j + cfg_.table_depth - h) % cfg_.table_depth;
    const u32 dist_hole = (j + cfg_.table_depth - hole) % cfg_.table_depth;
    if (dist_home >= dist_hole) {
      slots_[hole] = std::move(slots_[j]);
      slots_[j] = SwEntry{};
      write_entry(hole, log);
      hole = j;
    }
  }
  log.memory_write(mem_, hole, hw::Word{});
}

void RangeVectorHash::refresh_entry(ruleset::SegmentPrefix p,
                                    hw::CommandLog& log) {
  const u32 slot = find_slot(p);
  SwEntry& e = slots_[slot];
  const std::vector<Label> fresh = compute_list(p);
  if (std::ranges::equal(fresh, lists_->content(e.ref))) return;
  const ListRef new_ref = lists_->acquire(fresh, log);
  lists_->release(e.ref);
  e.ref = new_ref;
  write_entry(slot, log);
}

template <typename Fn>
void RangeVectorHash::for_each_descendant(ruleset::SegmentPrefix p,
                                          Fn&& fn) {
  // Strict descendants occupy the contiguous value range
  // [p.value, p.value | host_mask]; SegmentPrefix orders by (value,
  // length), so one bounded map scan visits exactly the candidates.
  const u16 hi = static_cast<u16>(
      p.value | static_cast<u16>(mask_low(16u - p.length) & 0xFFFFu));
  auto it = prefixes_.lower_bound(ruleset::SegmentPrefix{p.value, 0});
  const auto end =
      prefixes_.upper_bound(ruleset::SegmentPrefix{hi, u8{16}});
  for (; it != end; ++it) {
    const ruleset::SegmentPrefix d = it->first;
    if (d.length > p.length && p.matches(d.value)) {
      fn(d);
    }
  }
}

void RangeVectorHash::note_length_added(u8 len) {
  if (len_count_[len]++ == 0) {
    live_lens_.clear();
    for (int l = 16; l >= 0; --l) {
      if (len_count_[static_cast<usize>(l)] > 0) {
        live_lens_.push_back(static_cast<u8>(l));
      }
    }
  }
}

void RangeVectorHash::note_length_removed(u8 len) {
  if (--len_count_[len] == 0) {
    live_lens_.erase(std::find(live_lens_.begin(), live_lens_.end(), len));
  }
}

void RangeVectorHash::insert(ruleset::SegmentPrefix p, Label label,
                             hw::CommandLog& log) {
  if (!prefixes_.emplace(p, label).second) {
    throw InternalError("RangeVectorHash: duplicate prefix insert");
  }
  note_length_added(p.length);
  place_entry(p, compute_list(p), log);
  for_each_descendant(p,
                      [&](ruleset::SegmentPrefix d) { refresh_entry(d, log); });
}

void RangeVectorHash::remove(ruleset::SegmentPrefix p, hw::CommandLog& log) {
  if (prefixes_.erase(p) == 0) {
    throw InternalError("RangeVectorHash: remove of unknown prefix");
  }
  note_length_removed(p.length);
  erase_entry(p, log);
  for_each_descendant(p,
                      [&](ruleset::SegmentPrefix d) { refresh_entry(d, log); });
}

void RangeVectorHash::refresh(ruleset::SegmentPrefix p, hw::CommandLog& log) {
  refresh_entry(p, log);
  for_each_descendant(p,
                      [&](ruleset::SegmentPrefix d) { refresh_entry(d, log); });
}

void RangeVectorHash::clear(hw::CommandLog& log) {
  for (u32 slot = 0; slot < slots_.size(); ++slot) {
    if (!slots_[slot].valid) continue;
    lists_->release(slots_[slot].ref);
    slots_[slot] = SwEntry{};
    log.memory_write(mem_, slot, hw::Word{});
  }
  prefixes_.clear();
  len_count_.fill(0);
  live_lens_.clear();
  live_entries_ = 0;
}

ListRef RangeVectorHash::lookup(u16 key, hw::CycleRecorder* rec) const {
  // Probe the live range-vector signatures longest-first; the first hit
  // carries the full covering list (leaf-pushed on update), so it is
  // the longest-match answer. Each signature costs one hash cycle plus
  // its probe-cluster reads.
  for (const u8 len : live_lens_) {
    const u16 masked =
        len == 0 ? u16{0}
                 : static_cast<u16>(
                       key & ~static_cast<u16>(mask_low(16u - len) & 0xFFFFu));
    if (rec != nullptr) {
      rec->charge(1, 0);  // hash-unit address generation
    }
    u32 slot = static_cast<u32>(
        mix64(((u64{len} << kValueBits) | masked) ^ kHashSalt) %
        cfg_.table_depth);
    while (true) {
      const hw::Word w = mem_.read(slot, rec);
      hw::WordUnpacker u(w);
      const u64 valid = u.pull(1);
      const u64 elen = u.pull(kLenBits);
      const u64 evalue = u.pull(kValueBits);
      const u64 eaddr = u.pull(kAddrBits);
      if (valid == 0) break;  // miss at this signature
      if (elen == len && evalue == masked) {
        return ListRef{static_cast<u32>(eaddr)};
      }
      slot = (slot + 1) % cfg_.table_depth;
    }
  }
  return ListRef{};
}

}  // namespace pclass::alg
