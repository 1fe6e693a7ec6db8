/// \file label_list_store.hpp
/// The "Labels memory block" (§III.D): priority-ordered lists of labels,
/// stored one label per word with an end-of-list flag. Every per-field
/// algorithm resolves a search key to a *pointer* into this store
/// (§III.B phase 2: "The result from each algorithm is a pointer to a
/// list of matching labels").
///
/// Storage is content-addressed with reference counting: identical lists
/// (extremely common, because multi-bit-trie leaf pushing replicates
/// ancestor lists across sibling entries) are stored once. This is the
/// label method's memory saving made concrete.
#pragma once

#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/small_vec.hpp"
#include "common/types.hpp"
#include "hwsim/memory.hpp"
#include "hwsim/update_bus.hpp"

namespace pclass::alg {

/// Pointer to a list in a LabelListStore. Address 0 is reserved as the
/// null (empty) list, so node encodings can use plain zero.
struct ListRef {
  static constexpr u32 kNull = 0;
  u32 addr = kNull;

  [[nodiscard]] constexpr bool empty() const { return addr == kNull; }
  friend constexpr auto operator<=>(ListRef, ListRef) = default;
};

/// Content-addressed, ref-counted label-list memory.
class LabelListStore {
 public:
  /// \param label_bits  width of one label; the word is label_bits + 1
  ///                    (end-of-list flag).
  /// \param depth       words of backing memory.
  LabelListStore(std::string name, u32 depth, unsigned label_bits);

  /// Find-or-store \p list (must be non-empty, already in final order)
  /// and take one reference. New lists are uploaded through \p log.
  /// \throws CapacityError when the memory cannot hold the list.
  [[nodiscard]] ListRef acquire(const std::vector<Label>& list,
                                hw::CommandLog& log);

  /// Take \p n more references to the stored list at \p ref (no-op for
  /// the null list): one lookup however many pointers the caller adds,
  /// and no device write, since the words are already there.
  void retain(ListRef ref, u32 n);

  /// Drop \p n references to the list at \p ref; frees the block when the
  /// count reaches zero (no device writes needed — stale words are
  /// unreachable once no node points at them).
  void release(ListRef ref, u32 n = 1);

  /// The stored content of \p ref (empty for the null list): the host's
  /// copy, valid while the caller holds a reference to it.
  [[nodiscard]] std::span<const Label> content(ListRef ref) const;

  /// Hardware path: read only the first (highest-priority) label —
  /// one memory access, the §V.B "one more cycle" of the lookup.
  [[nodiscard]] Label read_first(ListRef ref, hw::CycleRecorder* rec) const;

  /// Hardware path: walk the list until the end flag (CrossProduct
  /// combining and the DCFL baseline need the full list).
  [[nodiscard]] std::vector<Label> read_list(ListRef ref,
                                             hw::CycleRecorder* rec) const;

  /// Allocation-free read_list: appends into caller-owned scratch (the
  /// classifier's per-lookup hot path — see common/small_vec.hpp).
  void read_list_into(ListRef ref, hw::CycleRecorder* rec,
                      LabelVec& out) const;

  [[nodiscard]] const hw::Memory& memory() const { return mem_; }
  [[nodiscard]] unsigned label_bits() const { return label_bits_; }

  /// Words currently holding live (referenced) lists.
  [[nodiscard]] u64 live_words() const { return live_words_; }
  [[nodiscard]] u64 live_bits() const {
    return live_words_ * mem_.word_bits();
  }
  [[nodiscard]] usize distinct_lists() const { return by_content_.size(); }

  /// Sum of references across all live lists.
  [[nodiscard]] u64 total_references() const {
    u64 refs = 0;
    for (const auto& [addr, info] : by_addr_) {
      refs += info.refcount;
    }
    return refs;
  }

  /// Words a non-content-addressed store would hold (every reference its
  /// own copy) — the denominator of the dedup factor.
  [[nodiscard]] u64 replicated_words() const {
    u64 words = 0;
    for (const auto& [addr, info] : by_addr_) {
      words += u64{info.refcount} * info.content.size();
    }
    return words;
  }

 private:
  struct BlockInfo {
    std::vector<Label> content;
    u32 refcount = 0;
  };

  u32 allocate(u32 len);
  void free_block(u32 addr, u32 len);

  hw::Memory mem_;
  unsigned label_bits_;
  std::map<std::vector<Label>, u32> by_content_;  // content -> addr
  std::map<u32, BlockInfo> by_addr_;              // addr -> info
  std::map<u32, u32> free_blocks_;                // addr -> len (coalesced)
  u32 bump_ = 1;  // address 0 reserved for the null list
  u64 live_words_ = 0;
};

}  // namespace pclass::alg
