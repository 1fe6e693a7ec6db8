/// \file binary_search_tree.hpp
/// Balanced binary search tree over one 16-bit IP segment — the
/// architecture's memory-efficient IP lookup option (§III.C: "BST is
/// implemented in order to achieve more efficient memory usage.
/// Therefore, a simple memory block is designated for each 16-bit
/// segmented IP field").
///
/// The prefix set is converted to elementary intervals; each interval
/// carries the priority-ordered label list of its covering prefixes.
/// A balanced BST over the interval start points (one node per interval)
/// resolves a key in ceil(log2 n) memory reads — the paper budgets 16
/// per packet, the worst case for a full 16-bit segment.
///
/// Faithful to §III.C, the tree is rebuilt *in software* on every update
/// ("a balanced tree algorithm can be easily implemented in software and
/// the information with the new structure can be applied in the
/// architecture for each rule insertion") and only changed words are
/// re-uploaded; the measured upload cost is the BST's documented update
/// weakness.
#pragma once

#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "alg/label_list_store.hpp"
#include "common/types.hpp"
#include "hwsim/memory.hpp"
#include "ruleset/rule.hpp"

namespace pclass::alg {

/// Geometry of one BST engine.
struct BstConfig {
  /// Maximum node count (= elementary intervals; ~2x the unique
  /// prefixes of the dimension).
  u32 max_nodes = 4096;
  /// Cycles per node read (1: the paper charges 16 cycles for a 16-deep
  /// walk).
  unsigned read_cycles = 1;
  /// Optional word width override to match the MBT level-2 geometry for
  /// Fig. 5 sharing. 0 = minimal width.
  unsigned word_bits_override = 0;
};

/// Balanced-BST engine for one dimension.
class BinarySearchTree {
 public:
  /// \param prio  the controller's label-priority column: entry l is
  ///              the current best rule priority of label l.
  BinarySearchTree(const std::string& name, BstConfig cfg,
                   LabelListStore& lists, const Priority* prio,
                   hw::Memory* shared_memory = nullptr);

  /// A copy holds the source's tree and node words but still points at
  /// the source's list store, priority column and node memory until
  /// rebind() points it at its own.
  BinarySearchTree(const BinarySearchTree&) = default;
  BinarySearchTree& operator=(const BinarySearchTree&) = default;

  /// Point the tree at \p lists, \p prio and, when it owns no node
  /// memory, \p shared_memory (as the constructor's).
  void rebind(LabelListStore& lists, const Priority* prio,
              hw::Memory* shared_memory);

  // ---- controller-side update path ----

  /// Add prefix \p p carrying \p label, rebuild, upload changed words.
  void insert(ruleset::SegmentPrefix p, Label label, hw::CommandLog& log);

  /// Bulk load: add many prefixes with a single rebuild/upload (the
  /// controller uses this when programming a whole filter set; per-rule
  /// incremental cost is measured with insert()).
  void insert_bulk(
      const std::vector<std::pair<ruleset::SegmentPrefix, Label>>& batch,
      hw::CommandLog& log);

  /// Remove prefix \p p, rebuild, upload changed words.
  void remove(ruleset::SegmentPrefix p, hw::CommandLog& log);

  /// Re-sort lists after a priority change of \p p's label.
  void refresh(ruleset::SegmentPrefix p, hw::CommandLog& log);

  void clear(hw::CommandLog& log);

  // ---- hardware-side lookup path ----

  /// Predecessor search for \p key; returns the matched interval's label
  /// list (empty ref = no covering prefix).
  [[nodiscard]] ListRef lookup(u16 key, hw::CycleRecorder* rec) const;

  // ---- introspection ----

  [[nodiscard]] const hw::Memory& memory() const { return *mem_; }
  [[nodiscard]] usize node_count() const { return live_nodes_; }
  [[nodiscard]] u64 live_node_bits() const {
    return u64{live_nodes_} * mem_->word_bits();
  }
  [[nodiscard]] u64 capacity_bits() const { return mem_->capacity_bits(); }
  /// Depth of the current balanced tree (worst-case reads per lookup).
  [[nodiscard]] unsigned depth() const;
  [[nodiscard]] usize prefix_count() const { return prefixes_.size(); }

 private:
  struct SwNode {
    u16 start = 0;
    ListRef ref{};  ///< the interval's covering labels (null when none)
    bool valid = false;
  };

  /// Rebuild the balanced tree from `prefixes_` and upload the diff.
  void rebuild(hw::CommandLog& log);
  void write_node(u32 idx, hw::CommandLog& log);

  BstConfig cfg_;
  LabelListStore* lists_;
  const Priority* prio_;  ///< label value -> best rule priority

  std::optional<hw::Memory> owned_mem_;  ///< empty when the block is shared
  hw::Memory* mem_ = nullptr;

  std::map<ruleset::SegmentPrefix, Label> prefixes_;
  std::vector<SwNode> nodes_;  ///< heap-order shadow (index 0 = root)
  u32 live_nodes_ = 0;
};

}  // namespace pclass::alg
