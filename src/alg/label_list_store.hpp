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
///
/// The model charges, the host computes. The device words are what the
/// update bus writes and what synthesis counts. The host keeps each
/// stored list's labels once more, in a flat array indexed by word
/// address (the label field of every live word), which is both the
/// store's content index and what a lookup reads: read_list returns the
/// list as a span of that array and charges one read per word, exactly
/// what walking the words to the end flag costs. Builds with assertions
/// on (no NDEBUG) check every read against the device words.
#pragma once

#include <cassert>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
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
  [[nodiscard]] Label read_first(ListRef ref, hw::CycleRecorder* rec) const {
    if (ref.empty()) {
      return Label{};
    }
    if (ref.addr >= labels_.size()) [[unlikely]] {
      throw_out_of_range(ref);
    }
    mem_.charge_reads(1, rec);
    assert(matches_memory(ref));
    return labels_[ref.addr];
  }

  /// Hardware path: the whole list (CrossProduct combining and the DCFL
  /// baseline), charged as the walk to the end flag, one read per word.
  /// The span stays valid while the caller holds a reference to \p ref
  /// and the store is not written.
  [[nodiscard]] std::span<const Label> read_list(
      ListRef ref, hw::CycleRecorder* rec) const {
    if (ref.empty()) {
      return {};
    }
    if (ref.addr >= labels_.size()) [[unlikely]] {
      throw_out_of_range(ref);
    }
    const u32 len = blocks_[ref.addr].len;
    mem_.charge_reads(len, rec);
    assert(matches_memory(ref));
    return {labels_.data() + ref.addr, len};
  }

  [[nodiscard]] const hw::Memory& memory() const { return mem_; }
  [[nodiscard]] unsigned label_bits() const { return label_bits_; }

  /// Words currently holding live (referenced) lists.
  [[nodiscard]] u64 live_words() const { return live_words_; }
  [[nodiscard]] u64 live_bits() const {
    return live_words_ * mem_.word_bits();
  }
  [[nodiscard]] usize distinct_lists() const { return by_hash_.size(); }

  /// Sum of references across all live lists.
  [[nodiscard]] u64 total_references() const {
    u64 refs = 0;
    for (const auto& [hash, addr] : by_hash_) {
      refs += blocks_[addr].refcount;
    }
    return refs;
  }

  /// Words a non-content-addressed store would hold (every reference its
  /// own copy) — the denominator of the dedup factor.
  [[nodiscard]] u64 replicated_words() const {
    u64 words = 0;
    for (const auto& [hash, addr] : by_hash_) {
      words += u64{blocks_[addr].refcount} * blocks_[addr].len;
    }
    return words;
  }

 private:
  /// A stored list, kept at its first word's address (zero elsewhere).
  struct Block {
    u32 len = 0;
    u32 refcount = 0;
  };

  u32 allocate(u32 len);
  void free_block(u32 addr, u32 len);
  /// The stored list equal to \p list, or ListRef::kNull.
  [[nodiscard]] u32 find(std::span<const Label> list, u64 hash) const;
  /// The read path's bounds failure, as hw::Memory::read reports it.
  [[noreturn]] void throw_out_of_range(ListRef ref) const;
  /// Whether the device words of \p ref hold exactly its host labels.
  [[nodiscard]] bool matches_memory(ListRef ref) const;

  hw::Memory mem_;
  unsigned label_bits_;
  std::vector<Label> labels_;  ///< label field of every word, by address
  std::vector<Block> blocks_;  ///< by address
  std::unordered_multimap<u64, u32> by_hash_;  ///< content hash -> addr
  std::map<u32, u32> free_blocks_;             ///< addr -> len (coalesced)
  u32 bump_ = 1;  // address 0 reserved for the null list
  u64 live_words_ = 0;
};

}  // namespace pclass::alg
