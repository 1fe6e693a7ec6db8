/// \file multibit_trie.hpp
/// Multi-bit trie (MBT) over one 16-bit IP segment — the architecture's
/// fast IP lookup algorithm (§III.C: three pipelined levels with 5-5-6
/// bit strides; §V.B: 6-cycle latency, 1 packet/cycle throughput).
///
/// Structure: a node at level k is an array of 2^stride[k] entries; an
/// entry holds an optional child-node pointer and a pointer into the
/// label-list store. Prefixes are expanded onto the entries they cover
/// (controlled prefix expansion) and label lists are *leaf-pushed*: the
/// list at any entry contains the labels of ALL prefixes covering that
/// path, in priority order, so a lookup needs only the deepest existing
/// entry ("the result from each algorithm is a pointer to a list of
/// matching labels"). This replication is exactly why the paper pairs
/// MBT with the label method — lists hold 13-bit labels, not rules, and
/// the content-addressed store dedups identical lists.
///
/// Division of labour (§IV.A): all structural computation happens here in
/// controller software; the device only receives word writes through the
/// CommandLog and serves reads at lookup time.
#pragma once

#include <map>
#include <span>
#include <string>
#include <vector>

#include "alg/label_list_store.hpp"
#include "common/types.hpp"
#include "hwsim/memory.hpp"
#include "ruleset/rule.hpp"

namespace pclass::alg {

/// Geometry of one multi-bit trie.
struct MbtConfig {
  /// Per-level strides; must sum to 16 (one IP segment).
  std::vector<unsigned> strides = {5, 5, 6};
  /// Maximum node count per level (level 0 always has exactly 1 node).
  std::vector<u32> level_capacity = {1, 256, 1024};
  /// Cycles per level read (2 models the paper's registered BRAM access:
  /// 3 levels x 2 cycles = the 6-cycle MBT latency of §V.B).
  unsigned read_cycles = 2;
  /// Optional override of the level-word width (bits), used to match the
  /// BST word geometry for Fig. 5 memory sharing. 0 = minimal width.
  unsigned word_bits_override = 0;
};

/// Multi-bit trie engine for one dimension.
class MultiBitTrie {
 public:
  /// \param prio     the controller's label-priority column: entry l is
  ///                 the current best rule priority of label l (label
  ///                 lists are kept sorted by it).
  /// \param shared_level  optional externally-owned memory to use for one
  ///                 level (Fig. 5 sharing); nullptr = own all levels.
  MultiBitTrie(const std::string& name, MbtConfig cfg, LabelListStore& lists,
               const Priority* prio, hw::Memory* shared_level = nullptr,
               usize shared_level_index = 1);

  /// A copy holds the source's nodes and level words but still points at
  /// the source's list store, priority column and levels until rebind()
  /// points it at its own (a classifier replica's copy does both).
  MultiBitTrie(const MultiBitTrie&) = default;
  MultiBitTrie& operator=(const MultiBitTrie&) = default;

  /// Point the trie at \p lists, \p prio and \p shared_level (as the
  /// constructor's) and its owned levels at its own memories.
  void rebind(LabelListStore& lists, const Priority* prio,
              hw::Memory* shared_level);

  // ---- controller-side update path (emits device writes via log) ----

  /// Teach the trie that segment prefix \p p carries \p label.
  /// \throws CapacityError when a level node pool or list store is full;
  ///         the node pools, the store and every lookup are then as
  ///         before the call.
  void insert(ruleset::SegmentPrefix p, Label label, hw::CommandLog& log);

  /// Remove prefix \p p (its label is dropped from all covered lists;
  /// emptied nodes are pruned).
  void remove(ruleset::SegmentPrefix p, hw::CommandLog& log);

  /// Re-sort lists containing \p p's label after its best-priority
  /// changed (a rule using the same field value was added/removed).
  void refresh(ruleset::SegmentPrefix p, hw::CommandLog& log);

  /// Drop everything (config-switch flush).
  void clear(hw::CommandLog& log);

  // ---- hardware-side lookup path ----

  /// Walk the levels for \p key; returns the deepest label-list pointer
  /// (empty ref = no matching prefix). Charges level reads into \p rec.
  [[nodiscard]] ListRef lookup(u16 key, hw::CycleRecorder* rec) const;

  // ---- introspection ----

  [[nodiscard]] usize levels() const { return cfg_.strides.size(); }
  [[nodiscard]] const hw::Memory& level_memory(usize k) const {
    return *mem_[k];
  }
  /// Bits of node storage occupied by live nodes (the paper's "memory
  /// space required" measure; excludes label lists).
  [[nodiscard]] u64 live_node_bits() const;
  /// Physical bits across all level memories (what synthesis allocates).
  [[nodiscard]] u64 capacity_bits() const;
  [[nodiscard]] usize node_count(usize level) const;
  [[nodiscard]] usize prefix_count() const { return prefix_anchor_.size(); }

 private:
  struct SwEntry {
    i64 child = -1;  ///< node id at level+1, -1 = none
    ListRef ref;     ///< device pointer of the list (content: lists_)
  };

  struct SwNode {
    std::vector<SwEntry> entries;
    std::map<ruleset::SegmentPrefix, Label> anchored;
    i64 parent = -1;        ///< node id at level-1 (root: -1)
    u32 parent_entry = 0;   ///< entry index in the parent holding us
    u32 children = 0;       ///< entries with a child node
    bool live = false;
  };

  struct Span {
    u32 lo = 0;
    u32 hi = 0;  // inclusive entry range inside the anchor node
  };

  [[nodiscard]] usize anchor_level(u8 prefix_len) const;
  [[nodiscard]] u32 entry_index(u16 key, usize level) const;
  [[nodiscard]] Span covered_span(ruleset::SegmentPrefix p,
                                  usize level) const;
  [[nodiscard]] unsigned level_word_bits(usize level) const;

  /// Walk (creating nodes as needed) to the anchor node of \p p.
  i64 walk_to_anchor(ruleset::SegmentPrefix p, bool create,
                     hw::CommandLog& log);
  i64 alloc_node(usize level, i64 parent, u32 parent_entry,
                 hw::CommandLog& log);
  void free_node(usize level, i64 id);
  void write_entry(usize level, i64 node, u32 entry, hw::CommandLog& log);
  /// Recompute the list of one entry (and its subtree) from the inherited
  /// base list; writes device words for every change. When \p force is
  /// false the recursion prunes at unchanged entries — valid for
  /// inserts/removes (a change always propagates through the entry's own
  /// list) but NOT for priority refreshes, where a descendant list can
  /// reorder while this entry's list is unchanged.
  void recompute_entry(usize level, i64 node, u32 entry,
                       std::span<const Label> inherited,
                       hw::CommandLog& log, bool force);
  /// Recompute all entries covered by \p p at its anchor node.
  void recompute_span(ruleset::SegmentPrefix p, hw::CommandLog& log,
                      bool force);
  /// Prune empty nodes starting from \p node upward.
  void prune_upwards(usize level, i64 node, hw::CommandLog& log);
  /// The list of the parent entry holding \p node (empty at the root).
  [[nodiscard]] std::span<const Label> inherited_of(usize level,
                                                    i64 node) const;
  [[nodiscard]] std::vector<Label> compose_list(
      const SwNode& node, usize level, u32 entry,
      std::span<const Label> inherited) const;

  /// shared_level_ when no level is shared.
  static constexpr usize kNoSharedLevel = ~usize{0};

  MbtConfig cfg_;
  std::vector<unsigned> cum_;  ///< cumulative stride sums
  LabelListStore* lists_;
  const Priority* prio_;  ///< label value -> best rule priority
  usize shared_level_ = kNoSharedLevel;  ///< the level in a shared block

  std::vector<hw::Memory> owned_mem_;  ///< every level but the shared one
  std::vector<hw::Memory*> mem_;  ///< per-level (may alias a shared block)

  std::vector<std::vector<SwNode>> pool_;       ///< per-level node pools
  std::vector<std::vector<u32>> free_ids_;      ///< per-level free lists
  std::map<ruleset::SegmentPrefix, std::pair<usize, i64>> prefix_anchor_;
};

}  // namespace pclass::alg
