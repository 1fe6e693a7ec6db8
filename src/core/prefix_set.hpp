/// \file prefix_set.hpp
/// Refcounted set of packed label prefixes: the presence table behind
/// the exact combine's prefix prune (DCFL's label aggregation, Taylor &
/// Turner). One set per search depth holds every prefix (l0..lk) of the
/// label combinations of installed rules; the combine skips a subtree
/// whose prefix is absent, because no installed rule can lie below it.
///
/// Flat open addressing with linear probing and backward-shift deletion
/// (no tombstones), so a set is exactly its live keys after any update
/// sequence. Lookups touch only the key array; refcounts live beside it
/// and are read on the update path only (controller-side, like the label
/// tables).
///
/// Sizing: a set fills at most 3/8 of its slots, doubling when an add
/// would pass that, so it is sized by its own key count (a bulk load
/// grows it as it goes). The exact combine probes these sets ~16 times
/// per lookup, about half of them for absent prefixes, and a probe for
/// an absent key walks on to the next empty slot: at 3/8 a probe reads
/// ~1.2 slots on a 10k-rule ACL set, whose five tables take 1.5 MB.
#pragma once

#include <algorithm>
#include <bit>
#include <vector>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/types.hpp"

namespace pclass::core {

class PrefixSet {
 public:
  /// Whether \p key (any value but ~0) is present.
  [[nodiscard]] bool contains(u64 key) const { return find(key) != kAbsent; }

  /// Take one reference to \p key; true when it became present.
  bool add(u64 key) {
    reserve(size_ + 1);
    usize s = home(key);
    for (; keys_[s] != kEmpty; s = (s + 1) & mask_) {
      if (keys_[s] == key) {
        ++counts_[s];
        return false;
      }
    }
    keys_[s] = key;
    counts_[s] = 1;
    ++size_;
    return true;
  }

  /// Drop one reference to \p key; true when it became absent.
  /// \throws InternalError when \p key is not present.
  bool remove(u64 key) {
    const usize s = find(key);
    if (s == kAbsent) {
      throw InternalError("PrefixSet: remove of an absent prefix");
    }
    if (--counts_[s] > 0) return false;
    // Backward shift: pull later chain members whose home does not lie
    // in (hole, j] into the hole, so no probe chain is cut.
    usize hole = s;
    for (usize j = (s + 1) & mask_; keys_[j] != kEmpty; j = (j + 1) & mask_) {
      if (((j - home(keys_[j])) & mask_) >= ((j - hole) & mask_)) {
        keys_[hole] = keys_[j];
        counts_[hole] = counts_[j];
        hole = j;
      }
    }
    keys_[hole] = kEmpty;
    --size_;
    return true;
  }

  /// Make room for \p n keys without rehashing (load factor <= 3/8).
  void reserve(usize n) {
    const usize want =
        static_cast<usize>(next_pow2(std::max<u64>(16, (u64{n} * 8 + 2) / 3)));
    if (want <= keys_.size()) return;
    std::vector<u64> old_keys(want, kEmpty);
    std::vector<u32> old_counts(want, 0);
    old_keys.swap(keys_);
    old_counts.swap(counts_);
    mask_ = want - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(want));
    for (usize i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] == kEmpty) continue;
      usize s = home(old_keys[i]);
      while (keys_[s] != kEmpty) s = (s + 1) & mask_;
      keys_[s] = old_keys[i];
      counts_[s] = old_counts[i];
    }
  }

  [[nodiscard]] usize size() const { return size_; }

 private:
  static constexpr u64 kEmpty = ~u64{0};
  static constexpr usize kAbsent = ~usize{0};

  /// The slot holding \p key, or kAbsent.
  [[nodiscard]] usize find(u64 key) const {
    if (keys_.empty()) return kAbsent;
    for (usize s = home(key);; s = (s + 1) & mask_) {
      if (keys_[s] == key) return s;
      if (keys_[s] == kEmpty) return kAbsent;
    }
  }

  /// Fibonacci hashing: fold the key's high half onto its low half,
  /// multiply by 2^64 / phi and keep the top log2(slots) bits.
  [[nodiscard]] usize home(u64 key) const {
    return static_cast<usize>(((key ^ (key >> 32)) * 0x9E3779B97F4A7C15ULL) >>
                              shift_);
  }

  std::vector<u64> keys_;
  std::vector<u32> counts_;
  usize size_ = 0;
  usize mask_ = 0;
  unsigned shift_ = 64;  ///< 64 - log2(slots)
};

}  // namespace pclass::core
