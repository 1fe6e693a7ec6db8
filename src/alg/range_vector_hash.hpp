/// \file range_vector_hash.hpp
/// RVH-style range-vector hash engine over one 16-bit IP segment — the
/// repo's first structurally different lookup backend family (PAPERS.md:
/// *RVH: Range-Vector Hash for Fast Online Packet Classification*).
///
/// The prefix set is bucketed by its range-vector signature — here, the
/// prefix length (each length is one "range vector" over the 16-bit
/// segment space). Every anchored prefix owns one entry in a single
/// open-addressed hash table keyed by (length, masked value); the entry
/// stores the priority-ordered label list of ALL prefixes covering that
/// anchor (itself + its ancestors), so a lookup probes the live lengths
/// longest-first and the FIRST hit already carries the complete covering
/// list — no ancestor walk at lookup time.
///
/// Where the MBT pays leaf-pushed trie writes and the BST a full
/// software rebuild per update, the RVH update path is bucket-local and
/// incremental: an insert/remove/priority-refresh touches its own entry
/// plus the entries of its live descendants (a bounded map range scan),
/// and deletions repair the probe cluster in place (backward-shift), so
/// online churn — the update-storm scenarios — is its home turf.
#pragma once

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "alg/label_list_store.hpp"
#include "common/types.hpp"
#include "hwsim/memory.hpp"
#include "ruleset/rule.hpp"

namespace pclass::alg {

/// Geometry of one RVH engine.
struct RvhConfig {
  /// Open-addressed table depth (entries = unique prefixes of the
  /// dimension; keep the load factor comfortably below 1).
  u32 table_depth = 4096;
  /// Cycles per entry read.
  unsigned read_cycles = 1;
};

/// Range-vector hash engine for one dimension. Owns its memory — unlike
/// MBT level 2 / BST nodes it never participates in the Fig. 5 shared
/// block (its table is live in both select positions it is not).
class RangeVectorHash {
 public:
  RangeVectorHash(const std::string& name, RvhConfig cfg,
                  LabelListStore& lists,
                  std::function<Priority(Label)> prio_of);

  RangeVectorHash(const RangeVectorHash&) = delete;
  RangeVectorHash& operator=(const RangeVectorHash&) = delete;

  // ---- controller-side update path (incremental) ----

  /// Add prefix \p p carrying \p label: place one entry, then refresh
  /// the covering lists of \p p's live descendants. No rebuild.
  void insert(ruleset::SegmentPrefix p, Label label, hw::CommandLog& log);

  /// Remove prefix \p p: repair the probe cluster in place and drop the
  /// label from the descendants' covering lists.
  void remove(ruleset::SegmentPrefix p, hw::CommandLog& log);

  /// Re-sort the covering lists ordered by \p p's label priority (own
  /// entry + descendants).
  void refresh(ruleset::SegmentPrefix p, hw::CommandLog& log);

  void clear(hw::CommandLog& log);

  // ---- hardware-side lookup path ----

  /// Longest-match lookup: probe live lengths longest-first; the first
  /// hit's list is the complete covering set (leaf-pushed on update).
  [[nodiscard]] ListRef lookup(u16 key, hw::CycleRecorder* rec) const;

  // ---- introspection ----

  [[nodiscard]] const hw::Memory& memory() const { return *mem_; }
  [[nodiscard]] usize entry_count() const { return live_entries_; }
  [[nodiscard]] u64 live_node_bits() const {
    return u64{live_entries_} * mem_->word_bits();
  }
  [[nodiscard]] u64 capacity_bits() const { return mem_->capacity_bits(); }
  [[nodiscard]] usize prefix_count() const { return prefixes_.size(); }
  /// Distinct live prefix lengths = probe groups of the worst-case
  /// lookup (each group costs one hash + its cluster reads).
  [[nodiscard]] usize live_length_count() const { return live_lens_.size(); }

 private:
  struct SwEntry {
    bool valid = false;
    ruleset::SegmentPrefix prefix{};
    std::vector<Label> list;  ///< covering labels, priority-ordered
    ListRef ref{};
  };

  [[nodiscard]] u32 home_slot(ruleset::SegmentPrefix p) const;
  [[nodiscard]] u32 find_slot(ruleset::SegmentPrefix p) const;
  /// Priority-ordered covering list of \p p (itself + live ancestors).
  [[nodiscard]] std::vector<Label> compute_list(
      ruleset::SegmentPrefix p) const;
  void write_entry(u32 slot, hw::CommandLog& log);
  void place_entry(ruleset::SegmentPrefix p, std::vector<Label> list,
                   hw::CommandLog& log);
  void erase_entry(ruleset::SegmentPrefix p, hw::CommandLog& log);
  /// Recompute + re-upload the covering list of one live prefix if it
  /// changed (the descendant-repair step of every mutation).
  void refresh_entry(ruleset::SegmentPrefix p, hw::CommandLog& log);
  /// Apply \p fn to every live strict descendant of \p p (longer
  /// prefixes covered by it) via a bounded map range scan.
  template <typename Fn>
  void for_each_descendant(ruleset::SegmentPrefix p, Fn&& fn);
  void note_length_added(u8 len);
  void note_length_removed(u8 len);

  RvhConfig cfg_;
  LabelListStore& lists_;
  std::function<Priority(Label)> prio_of_;

  std::unique_ptr<hw::Memory> mem_;

  std::map<ruleset::SegmentPrefix, Label> prefixes_;
  std::vector<SwEntry> slots_;           ///< table shadow (index = slot)
  std::array<u32, 17> len_count_{};      ///< live prefixes per length
  std::vector<u8> live_lens_;            ///< live lengths, descending
  u32 live_entries_ = 0;
};

}  // namespace pclass::alg
