#include "alg/label_list_store.hpp"

#include <algorithm>

#include "common/hash.hpp"

namespace pclass::alg {

namespace {

u64 hash_list(std::span<const Label> list) {
  u64 h = list.size();
  for (const Label l : list) {
    h = mix64(h ^ l.value);
  }
  return h;
}

}  // namespace

LabelListStore::LabelListStore(std::string name, u32 depth,
                               unsigned label_bits)
    : mem_(std::move(name), depth, label_bits + 1),
      label_bits_(label_bits),
      labels_(depth),
      blocks_(depth) {
  if (label_bits == 0 || label_bits > 16) {
    throw ConfigError("LabelListStore: label_bits must be in [1, 16]");
  }
  if (depth < 2) {
    throw ConfigError("LabelListStore: depth must be >= 2");
  }
}

u32 LabelListStore::allocate(u32 len) {
  // First fit over the coalesced free map; fall back to the bump pointer.
  for (auto it = free_blocks_.begin(); it != free_blocks_.end(); ++it) {
    if (it->second >= len) {
      const u32 addr = it->first;
      const u32 block_len = it->second;
      free_blocks_.erase(it);
      if (block_len > len) {
        free_blocks_.emplace(addr + len, block_len - len);
      }
      return addr;
    }
  }
  if (u64{bump_} + len > mem_.depth()) {
    throw CapacityError("LabelListStore '" + mem_.name() +
                        "': out of label memory (depth " +
                        std::to_string(mem_.depth()) + ")");
  }
  const u32 addr = bump_;
  bump_ += len;
  return addr;
}

void LabelListStore::free_block(u32 addr, u32 len) {
  auto [it, inserted] = free_blocks_.emplace(addr, len);
  if (!inserted) {
    throw InternalError("LabelListStore: double free");
  }
  // Coalesce with successor.
  if (auto next = std::next(it);
      next != free_blocks_.end() && it->first + it->second == next->first) {
    it->second += next->second;
    free_blocks_.erase(next);
  }
  // Coalesce with predecessor.
  if (it != free_blocks_.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second == it->first) {
      prev->second += it->second;
      free_blocks_.erase(it);
      it = prev;
    }
  }
  // Shrink the bump pointer when the tail becomes free.
  if (it->first + it->second == bump_) {
    bump_ = it->first;
    free_blocks_.erase(it);
  }
}

u32 LabelListStore::find(std::span<const Label> list, u64 hash) const {
  const auto [first, last] = by_hash_.equal_range(hash);
  for (auto it = first; it != last; ++it) {
    const u32 addr = it->second;
    if (std::ranges::equal(list, content(ListRef{addr}))) {
      return addr;
    }
  }
  return ListRef::kNull;
}

ListRef LabelListStore::acquire(const std::vector<Label>& list,
                                hw::CommandLog& log) {
  if (list.empty()) {
    throw ConfigError("LabelListStore: cannot store an empty list "
                      "(use ListRef::kNull)");
  }
  const u64 hash = hash_list(list);
  if (const u32 addr = find(list, hash); addr != ListRef::kNull) {
    ++blocks_[addr].refcount;
    return ListRef{addr};
  }
  const auto len = static_cast<u32>(list.size());
  const u32 addr = allocate(len);
  for (u32 i = 0; i < len; ++i) {
    hw::WordPacker p;
    p.push(list[i].value, label_bits_);
    p.push(i + 1 == len ? 1 : 0, 1);  // end-of-list flag
    log.memory_write(mem_, addr + i, p.word());
    labels_[addr + i] = list[i];
  }
  blocks_[addr] = Block{len, 1};
  by_hash_.emplace(hash, addr);
  live_words_ += len;
  return ListRef{addr};
}

void LabelListStore::retain(ListRef ref, u32 n) {
  if (ref.empty()) {
    return;
  }
  if (ref.addr >= blocks_.size() || blocks_[ref.addr].refcount == 0) {
    throw InternalError("LabelListStore: retain of unknown list");
  }
  blocks_[ref.addr].refcount += n;
}

void LabelListStore::release(ListRef ref, u32 n) {
  if (ref.empty()) {
    return;
  }
  if (ref.addr >= blocks_.size() || blocks_[ref.addr].refcount == 0 ||
      blocks_[ref.addr].refcount < n) {
    throw InternalError("LabelListStore: release of unknown list");
  }
  Block& b = blocks_[ref.addr];
  b.refcount -= n;
  if (b.refcount == 0) {
    const u32 len = b.len;
    const auto [first, last] = by_hash_.equal_range(
        hash_list({labels_.data() + ref.addr, len}));
    by_hash_.erase(std::find_if(first, last, [&](const auto& e) {
      return e.second == ref.addr;
    }));
    b = Block{};
    free_block(ref.addr, len);
    live_words_ -= len;
  }
}

std::span<const Label> LabelListStore::content(ListRef ref) const {
  if (ref.empty()) {
    return {};
  }
  if (ref.addr >= blocks_.size() || blocks_[ref.addr].refcount == 0) {
    throw InternalError("LabelListStore: content of unknown list");
  }
  return {labels_.data() + ref.addr, blocks_[ref.addr].len};
}

void LabelListStore::throw_out_of_range(ListRef ref) const {
  throw ConfigError("LabelListStore '" + mem_.name() + "': address " +
                    std::to_string(ref.addr) + " out of range (depth " +
                    std::to_string(mem_.depth()) + ")");
}

bool LabelListStore::matches_memory(ListRef ref) const {
  const u32 len = blocks_[ref.addr].len;
  for (u32 i = 0; i < len; ++i) {
    const hw::Word w = mem_.read(ref.addr + i, nullptr);
    if (w.get(0, label_bits_) != labels_[ref.addr + i].value ||
        w.get(label_bits_, 1) != u64{i + 1 == len}) {
      return false;
    }
  }
  return len != 0;
}

}  // namespace pclass::alg
