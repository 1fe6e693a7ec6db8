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

/// How classify_batch() picks its per-batch execution path (a software
/// decision; free). All paths produce identical verdicts and per-packet
/// memory accesses (cycles may only drop when the probe memo engages),
/// so the policy is purely a host-performance decision.
enum class PathPolicy : u8 {
  /// The per-scratch EWMA controller (core/path_controller.hpp) picks
  /// scalar-loop vs batch engine and memo-on vs memo-off online, from
  /// measured host ns/packet. The default.
  kAdaptive,
  /// Always the batch engine; the probe memo follows batch_probe_memo.
  /// The deterministic choice tests and ablations force.
  kForcePhase2,
  /// Always the packet-at-a-time loop: classify() per header (the
  /// phase-2 cost model without its scaffolding).
  kForceScalarLoop,
};

[[nodiscard]] constexpr const char* to_string(PathPolicy p) {
  switch (p) {
    case PathPolicy::kAdaptive: return "adaptive";
    case PathPolicy::kForcePhase2: return "phase2";
    case PathPolicy::kForceScalarLoop: return "scalar-loop";
  }
  return "?";
}

/// Full device configuration.
struct ClassifierConfig {
  IpAlgorithm ip_algorithm = IpAlgorithm::kMbt;
  CombineMode combine_mode = CombineMode::kFirstLabel;
  /// Combination-probe memo in the combiner (phase-2 only): when true
  /// the memo is *eligible*; under PathPolicy::kAdaptive the controller
  /// still decides per batch whether engaging it pays.
  bool batch_probe_memo = true;
  /// Slots of that memo (rounded up to a power of two; two tagged ways
  /// per set, entries persist across batches until the device changes —
  /// see core::ProbeMemo).
  u32 batch_memo_slots = 512;
  /// Per-batch execution-path policy of classify_batch().
  PathPolicy batch_path_policy = PathPolicy::kAdaptive;

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
