#include "core/rule_filter.hpp"

#include "common/error.hpp"

namespace pclass::core {

RuleFilter::RuleFilter(const std::string& name, u32 depth, u32 max_probes,
                       u64 hash_seed)
    : mem_(name, depth, kWordBits),
      hasher_(depth, hash_seed),
      max_probes_(max_probes) {
  if (max_probes == 0 || max_probes > depth) {
    throw ConfigError("RuleFilter: max_probes must be in [1, depth]");
  }
}

RuleFilter::Slot RuleFilter::decode(u32 addr, hw::CycleRecorder* rec) const {
  hw::WordUnpacker u(mem_.read(addr, rec));
  Slot s;
  s.valid = u.pull(1) != 0;
  s.tombstone = u.pull(1) != 0;
  const u64 key_lo = u.pull(64);
  const u64 key_hi = u.pull(4);
  s.key = Key68{static_cast<u8>(key_hi), key_lo};
  s.entry.rule = RuleId{static_cast<u32>(u.pull(16))};
  s.entry.priority = static_cast<Priority>(u.pull(16));
  s.entry.action = static_cast<u32>(u.pull(16));
  return s;
}

void RuleFilter::encode(u32 addr, const Slot& s, hw::CommandLog& log) {
  hw::WordPacker p;
  p.push(s.valid ? 1 : 0, 1);
  p.push(s.tombstone ? 1 : 0, 1);
  p.push(s.key.lo64(), 64);
  p.push(s.key.hi4(), 4);
  p.push(s.entry.rule.value & 0xFFFFu, 16);
  p.push(s.entry.priority & 0xFFFFu, 16);
  p.push(s.entry.action & 0xFFFFu, 16);
  const hw::Word full = p.word();
  // Pin-limited upload (§V.A): the 118-bit entry arrives in two bus
  // beats; the first beat stages the word with the valid bit clear so a
  // concurrent lookup never sees a half-written entry.
  hw::Word staged = full;
  staged.lo &= ~u64{1};
  log.memory_write(mem_, addr, staged);
  log.memory_write(mem_, addr, full);
}

void RuleFilter::insert(const Key68& key, const RuleEntry& entry,
                        hw::CommandLog& log) {
  if (!entry.fits_word()) {
    throw ConfigError("RuleFilter: rule id/priority/action exceed the "
                      "16-bit entry fields");
  }
  if (live_ >= mem_.depth()) {
    throw CapacityError("RuleFilter '" + mem_.name() + "': table full");
  }
  const u32 home = hasher_(key);
  std::optional<u32> reusable;
  for (u32 probe = 0; probe < max_probes_; ++probe) {
    const u32 addr = (home + probe) % mem_.depth();
    const Slot s = decode(addr, nullptr);
    if (s.valid && s.key == key) {
      throw InternalError("RuleFilter: duplicate key insert");
    }
    if (!s.valid) {
      if (s.tombstone) {
        if (!reusable) reusable = addr;
        continue;  // key may still appear later in the chain
      }
      const u32 target = reusable.value_or(addr);
      if (reusable && decode(target, nullptr).tombstone) {
        --tombstones_;
      }
      encode(target, Slot{true, false, key, entry}, log);
      ++live_;
      return;
    }
  }
  if (reusable) {
    --tombstones_;
    encode(*reusable, Slot{true, false, key, entry}, log);
    ++live_;
    return;
  }
  throw CapacityError("RuleFilter '" + mem_.name() +
                      "': probe bound exceeded (" +
                      std::to_string(max_probes_) +
                      ") — re-seed the hash or grow the table");
}

void RuleFilter::remove(const Key68& key, hw::CommandLog& log) {
  const u32 home = hasher_(key);
  for (u32 probe = 0; probe < max_probes_; ++probe) {
    const u32 addr = (home + probe) % mem_.depth();
    const Slot s = decode(addr, nullptr);
    if (s.valid && s.key == key) {
      encode(addr, Slot{false, true, {}, {}}, log);
      --live_;
      ++tombstones_;
      return;
    }
    if (!s.valid && !s.tombstone) {
      break;
    }
  }
  throw InternalError("RuleFilter: remove of unknown key");
}

void RuleFilter::modify(const Key68& key, const RuleEntry& entry,
                        hw::CommandLog& log) {
  if (!entry.fits_word()) {
    throw ConfigError("RuleFilter: rule id/priority/action exceed the "
                      "16-bit entry fields");
  }
  const u32 home = hasher_(key);
  for (u32 probe = 0; probe < max_probes_; ++probe) {
    const u32 addr = (home + probe) % mem_.depth();
    const Slot s = decode(addr, nullptr);
    if (s.valid && s.key == key) {
      encode(addr, Slot{true, false, key, entry}, log);
      return;
    }
    if (!s.valid && !s.tombstone) {
      break;
    }
  }
  throw InternalError("RuleFilter: modify of unknown key");
}

void RuleFilter::reseed(u64 new_seed, hw::CommandLog& log) {
  // Collect live entries from the device words (the controller's shadow
  // is the memory itself in this model).
  std::vector<std::pair<Key68, RuleEntry>> live;
  live.reserve(live_);
  for (u32 addr = 0; addr < mem_.depth(); ++addr) {
    const Slot s = decode(addr, nullptr);
    if (s.valid) {
      live.emplace_back(s.key, s.entry);
    }
  }
  const Key68Hasher old_hasher = hasher_;
  auto upload = [&](const Key68Hasher& h) {
    clear(log);
    hasher_ = h;
    for (const auto& [key, entry] : live) {
      log.hash_compute(mem_.name() + ".hash");
      insert(key, entry, log);
    }
  };
  try {
    upload(Key68Hasher(mem_.depth(), new_seed));
  } catch (const CapacityError&) {
    // All-or-nothing: restore under the old seed. Linear-probing
    // occupancy is insertion-order independent, so the restore cannot
    // exceed the probe bound the old layout satisfied.
    upload(old_hasher);
    throw;
  }
}

void RuleFilter::clear(hw::CommandLog& log) {
  for (u32 addr = 0; addr < mem_.depth(); ++addr) {
    const Slot s = decode(addr, nullptr);
    if (s.valid || s.tombstone) {
      encode(addr, Slot{}, log);
    }
  }
  live_ = 0;
  tombstones_ = 0;
}

std::optional<RuleEntry> RuleFilter::lookup(const Key68& key,
                                            hw::CycleRecorder* rec) const {
  if (rec != nullptr) {
    rec->charge(1, 0);  // hardware hash unit, one cycle
  }
  const u32 home = hasher_(key);
  for (u32 probe = 0; probe < max_probes_; ++probe) {
    const u32 addr = (home + probe) % mem_.depth();
    const Slot s = decode(addr, rec);
    if (s.valid && s.key == key) {
      return s.entry;
    }
    if (!s.valid && !s.tombstone) {
      return std::nullopt;
    }
  }
  return std::nullopt;
}

}  // namespace pclass::core
