/// \file config.hpp
/// Configuration of the configurable classifier: which IP algorithm the
/// controller selects (the IPalg_s signal of Fig. 2), how phase 3
/// combines labels, and the memory geometry of every block.
#pragma once

#include "alg/binary_search_tree.hpp"
#include "alg/multibit_trie.hpp"
#include "alg/port_registers.hpp"
#include "alg/range_vector_hash.hpp"
#include "common/types.hpp"

namespace pclass::core {

/// The IP lookup algorithms the controller can select (§IV.B: "a
/// configurable platform choosing between fast IP lookup algorithm (MBT)
/// and efficient-memory-space algorithm (BST)"; kRvh extends the select
/// with the repo's second backend family — a range-vector hash engine
/// whose update path is incremental rather than rebuild/leaf-push).
enum class IpAlgorithm : u8 {
  kMbt,  ///< multi-bit trie — fast, pipelined (IPalg_s = 0)
  kBst,  ///< binary search tree — compact (IPalg_s = 1)
  kRvh,  ///< range-vector hash — fast online updates (IPalg_s = 2)
};

[[nodiscard]] constexpr const char* to_string(IpAlgorithm a) {
  switch (a) {
    case IpAlgorithm::kMbt: return "MBT";
    case IpAlgorithm::kBst: return "BST";
    case IpAlgorithm::kRvh: return "RVH";
  }
  return "?";
}

/// Phase-3 label combination policy.
enum class CombineMode : u8 {
  /// The paper's scheme (§III.B): concatenate the *first* label of each
  /// dimension list and probe once. Fast and fixed-latency, but only
  /// heuristically correct on overlapping rule sets (see DESIGN.md §1.1).
  kFirstLabel,
  /// Return the minimum-priority hit over all combinations of the
  /// (short) per-dimension label lists, found by a pruned depth-first
  /// search: combinations whose label-priority bound cannot beat the
  /// best hit, or whose label prefix occurs in no installed rule, are
  /// never probed. Provably exact; variable latency (about one Rule
  /// Filter probe per packet on ClassBench-like sets). Used as the
  /// correctness reference and for the ablation.
  kCrossProduct,
};

[[nodiscard]] constexpr const char* to_string(CombineMode m) {
  return m == CombineMode::kFirstLabel ? "first-label" : "cross-product";
}

/// Full device configuration.
struct ClassifierConfig {
  IpAlgorithm ip_algorithm = IpAlgorithm::kMbt;
  CombineMode combine_mode = CombineMode::kFirstLabel;
  /// Geometry of each of the four IP-segment MBT engines.
  alg::MbtConfig mbt{};
  /// Geometry of each of the four IP-segment BST engines.
  alg::BstConfig bst{};
  /// Geometry of each of the four IP-segment RVH engines.
  alg::RvhConfig rvh{};
  /// Port register banks (source and destination).
  alg::PortRegistersConfig ports{};
  /// Label-list store depth per IP dimension (words).
  u32 label_store_depth = 8192;
  /// Rule Filter bucket count.
  u32 rule_filter_depth = 8192;
  /// Linear-probe bound before the controller must intervene.
  u32 rule_filter_max_probes = 64;
  /// Hash seed (the controller can re-seed on pathological clustering).
  u64 hash_seed = 0x9E3779B97F4A7C15ULL;
  /// Safety bound on CrossProduct probes per packet.
  u32 max_crossproduct_probes = 1u << 20;
  /// Share one physical block per IP dimension between the MBT level-2
  /// and the BST nodes (Fig. 5). When false each engine owns its memory.
  bool share_ip_memory = true;
  /// Model clock (paper's Table V synthesis result).
  double fmax_mhz = 133.51;

  /// Preset sized for filter sets up to \p max_rules rules (the paper's
  /// 1K/5K/10K working points).
  [[nodiscard]] static ClassifierConfig for_scale(usize max_rules) {
    ClassifierConfig c;
    if (max_rules <= 1200) {
      c.mbt.level_capacity = {1, 64, 192};
      c.bst.max_nodes = 3072;
      c.rvh.table_depth = 4096;
      c.label_store_depth = 4096;
      c.rule_filter_depth = 4096;
    } else if (max_rules <= 5200) {
      c.mbt.level_capacity = {1, 128, 512};
      c.bst.max_nodes = 8192;
      c.rvh.table_depth = 8192;
      c.label_store_depth = 8192;
      c.rule_filter_depth = 12288;
    } else {
      c.mbt.level_capacity = {1, 224, 1024};
      c.bst.max_nodes = 16384;
      c.rvh.table_depth = 16384;
      c.label_store_depth = 16384;
      c.rule_filter_depth = 24576;
    }
    return c;
  }
};

}  // namespace pclass::core
