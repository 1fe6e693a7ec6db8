#include "alg/label_list_store.hpp"

namespace pclass::alg {

LabelListStore::LabelListStore(std::string name, u32 depth,
                               unsigned label_bits)
    : mem_(std::move(name), depth, label_bits + 1), label_bits_(label_bits) {
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

ListRef LabelListStore::acquire(const std::vector<Label>& list,
                                hw::CommandLog& log) {
  if (list.empty()) {
    throw ConfigError("LabelListStore: cannot store an empty list "
                      "(use ListRef::kNull)");
  }
  if (auto it = by_content_.find(list); it != by_content_.end()) {
    ++by_addr_.at(it->second).refcount;
    return ListRef{it->second};
  }
  const auto len = static_cast<u32>(list.size());
  const u32 addr = allocate(len);
  for (u32 i = 0; i < len; ++i) {
    hw::WordPacker p;
    p.push(list[i].value, label_bits_);
    p.push(i + 1 == len ? 1 : 0, 1);  // end-of-list flag
    log.memory_write(mem_, addr + i, p.word());
  }
  by_content_.emplace(list, addr);
  by_addr_.emplace(addr, BlockInfo{list, 1});
  live_words_ += len;
  return ListRef{addr};
}

void LabelListStore::retain(ListRef ref, u32 n) {
  if (ref.empty()) {
    return;
  }
  const auto it = by_addr_.find(ref.addr);
  if (it == by_addr_.end() || it->second.refcount == 0) {
    throw InternalError("LabelListStore: retain of unknown list");
  }
  it->second.refcount += n;
}

void LabelListStore::release(ListRef ref, u32 n) {
  if (ref.empty()) {
    return;
  }
  auto it = by_addr_.find(ref.addr);
  if (it == by_addr_.end() || it->second.refcount < n) {
    throw InternalError("LabelListStore: release of unknown list");
  }
  it->second.refcount -= n;
  if (it->second.refcount == 0) {
    const auto len = static_cast<u32>(it->second.content.size());
    by_content_.erase(it->second.content);
    by_addr_.erase(it);
    free_block(ref.addr, len);
    live_words_ -= len;
  }
}

std::span<const Label> LabelListStore::content(ListRef ref) const {
  if (ref.empty()) {
    return {};
  }
  const auto it = by_addr_.find(ref.addr);
  if (it == by_addr_.end()) {
    throw InternalError("LabelListStore: content of unknown list");
  }
  return it->second.content;
}

Label LabelListStore::read_first(ListRef ref, hw::CycleRecorder* rec) const {
  if (ref.empty()) {
    return Label{};
  }
  const hw::Word w = mem_.read(ref.addr, rec);
  return Label{static_cast<u16>(w.get(0, label_bits_))};
}

std::vector<Label> LabelListStore::read_list(ListRef ref,
                                             hw::CycleRecorder* rec) const {
  LabelVec scratch;
  read_list_into(ref, rec, scratch);
  return std::vector<Label>(scratch.begin(), scratch.end());
}

void LabelListStore::read_list_into(ListRef ref, hw::CycleRecorder* rec,
                                    LabelVec& out) const {
  if (ref.empty()) {
    return;
  }
  u32 addr = ref.addr;
  while (true) {
    const hw::Word w = mem_.read(addr, rec);
    out.push_back(Label{static_cast<u16>(w.get(0, label_bits_))});
    if (w.get(label_bits_, 1) != 0) {
      break;
    }
    ++addr;
  }
}

}  // namespace pclass::alg
