/// \file classifier.hpp
/// The paper's contribution: a configurable, label-based, parallel
/// single-field lookup architecture for SDN packet classification
/// (Fig. 2), with controller-driven incremental update (Fig. 4) and the
/// four-phase pipelined lookup of Fig. 3:
///
///   phase 1  split the header into 7 dimension keys
///   phase 2  per-dimension parallel lookup -> label-list pointers
///   phase 3  combine labels into the 68-bit key, hash
///   phase 4  Rule Filter access -> HPMR + action
///
/// One object models both sides of the SDN split: the *controller-side*
/// update path (label tables, structure builders — all pure software,
/// §IV.A) and the *device-side* lookup path, which touches only hw::
/// memories/registers so every cycle and access count in the evaluation
/// is measured, not estimated.
#pragma once

#include <array>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "alg/binary_search_tree.hpp"
#include "alg/label_table.hpp"
#include "alg/multibit_trie.hpp"
#include "alg/port_registers.hpp"
#include "alg/protocol_lut.hpp"
#include "core/config.hpp"
#include "core/prefix_set.hpp"
#include "core/rule_filter.hpp"
#include "hwsim/pipeline.hpp"
#include "hwsim/shared_memory.hpp"
#include "hwsim/synthesis.hpp"
#include "hwsim/update_bus.hpp"
#include "net/packet.hpp"
#include "ruleset/rule_set.hpp"

namespace pclass::core {

/// Outcome and measured cost of classifying one header.
///
/// Cycle-charging contract (what every lookup entry point guarantees):
///   cycles = 1 (header split) + max over the 7 dimension recorders
///            (phase 2 runs in parallel; the phase costs the slowest
///            engine) + the tail recorder (label merge + every prefix
///            check and Rule Filter probe, serial);
///   memory_accesses = the *sum* of all recorders' block-memory reads.
struct ClassifyResult {
  /// The matched rule (HPMR under CrossProduct; under FirstLabel, the
  /// rule owning the first-label combination, when present).
  std::optional<RuleEntry> match;
  u64 cycles = 0;            ///< end-to-end latency of this lookup
  u64 memory_accesses = 0;   ///< total block-memory reads
  /// Rule Filter probes issued in phase 3: 1 under FirstLabel; under
  /// CrossProduct, the label combinations the pruned search reached (a
  /// combination is probed only if every prefix of it occurs in an
  /// installed rule and its labels' priority bound can still beat the
  /// best hit so far).
  u64 crossproduct_probes = 0;
};

/// Per-block memory occupancy snapshot.
struct MemoryBlockReport {
  std::string name;
  u64 capacity_bits = 0;
  u64 used_bits = 0;
};

/// Device memory map (Table V/VI source data).
struct MemoryReport {
  std::vector<MemoryBlockReport> blocks;
  u64 total_capacity_bits = 0;
  u64 total_used_bits = 0;
  u64 register_bits = 0;
};

/// The configurable classification device plus its controller shadow.
class ConfigurableClassifier {
 public:
  explicit ConfigurableClassifier(ClassifierConfig cfg = {});
  ~ConfigurableClassifier();

  ConfigurableClassifier(const ConfigurableClassifier&) = delete;

  /// Become a copy of \p o, written into this device's existing storage:
  /// its configuration, label tables, device blocks, installed rules and
  /// update statistics. The engines are then pointed at this device's own
  /// list stores, priority columns and shared blocks, so the copy looks
  /// up and updates exactly as \p o would, label numbering and charges
  /// included.
  ConfigurableClassifier& operator=(const ConfigurableClassifier& o);

  // ---- controller API (update path) ----

  /// Install one rule (Fig. 4 flow). Returns the measured update cost.
  /// \throws ConfigError on duplicate id or duplicate match part;
  ///         CapacityError when any hardware structure is full. A throw
  ///         first gives back every label (and engine entry) it took.
  hw::UpdateStats add_rule(const ruleset::Rule& r);

  /// Bulk-install a rule set (single BST rebuild per dimension when the
  /// BST configuration is active). On a throw the failing rule is
  /// rolled back as in add_rule; the rules before it stay installed.
  hw::UpdateStats add_rules(const ruleset::RuleSet& rules);

  /// Remove an installed rule.
  hw::UpdateStats remove_rule(RuleId id);

  /// OpenFlow MODIFY: replace the action (and optionally priority) of an
  /// installed rule without touching the lookup structures — a single
  /// in-place Rule Filter rewrite (3 bus cycles, like an insert).
  /// Changing the priority additionally refreshes the IP label lists it
  /// orders.
  hw::UpdateStats modify_rule(RuleId id, ruleset::Action action);

  /// Drive the IPalg_s select line (§III.A): clears the deactivating
  /// engines, re-binds the shared blocks (Fig. 5 flush) and rebuilds the
  /// newly selected engines from the label tables. Returns the cost.
  hw::UpdateStats set_ip_algorithm(IpAlgorithm alg);

  // ---- data-plane API (lookup path) ----

  /// Classify a parsed 5-tuple. Charges per the ClassifyResult
  /// contract: the 7 phase-2 engines record in parallel (max), the
  /// merge + Rule Filter tail records serially (sum). Thread-safe
  /// against other concurrent const lookups (the update path is not —
  /// the dataplane publishes immutable snapshots instead).
  [[nodiscard]] ClassifyResult classify(const net::FiveTuple& h) const;

  /// Parse + classify raw packet bytes; nullopt result for non-IPv4.
  [[nodiscard]] ClassifyResult classify_packet(
      std::span<const u8> bytes) const;

  // ---- introspection ----

  [[nodiscard]] const ClassifierConfig& config() const { return cfg_; }

  [[nodiscard]] IpAlgorithm ip_algorithm() const { return cfg_.ip_algorithm; }
  [[nodiscard]] CombineMode combine_mode() const { return cfg_.combine_mode; }
  [[nodiscard]] usize rule_count() const { return installed_.size(); }
  [[nodiscard]] std::optional<ruleset::Rule> installed_rule(RuleId id) const;

  /// Snapshot extraction: every installed rule (id order), e.g. for the
  /// oracle that judges this device's verdicts.
  [[nodiscard]] std::vector<ruleset::Rule> installed_rules() const;

  /// Cumulative update-bus statistics since construction.
  [[nodiscard]] const hw::UpdateStats& update_stats() const {
    return update_stats_;
  }

  /// Fig. 3 pipeline model for the current configuration.
  [[nodiscard]] hw::Pipeline lookup_pipeline() const;

  /// Memory map with capacity and live occupancy per block.
  [[nodiscard]] MemoryReport memory_report() const;

  /// Table V-shaped resource estimate for the current device.
  [[nodiscard]] hw::SynthesisReport synthesis_report() const;

  /// Unique labels currently live in dimension \p d.
  [[nodiscard]] usize label_count(Dimension d) const;

  /// The label-list store of IP dimension \p ip_dim_index (0..3), for
  /// dedup statistics (Ablation B).
  [[nodiscard]] const alg::LabelListStore& label_store(
      usize ip_dim_index) const {
    return *lists_.at(ip_dim_index);
  }

 private:
  struct InstalledRule {
    ruleset::Rule rule;
    std::array<Label, kNumDimensions> labels;
  };

  /// Search depths with a prefix table: depth k holds the prefixes
  /// (l0..lk) of kCombineOrder, k = 1..5 (depth 0 is a single live label;
  /// depth 6 is the Rule Filter probe itself).
  static constexpr usize kPrefixDepths = 5;

  /// Verdict and probe count of one exact combine.
  struct CombineOutcome {
    std::optional<RuleEntry> match;
    u64 probes = 0;
  };

  // The four IP dimensions in engine-array order.
  static constexpr std::array<Dimension, 4> kIpDims = {
      Dimension::kSrcIpHi, Dimension::kSrcIpLo, Dimension::kDstIpHi,
      Dimension::kDstIpLo};

  [[nodiscard]] static ruleset::SegmentPrefix ip_segment(
      const ruleset::Rule& r, usize ip_dim_index);

  /// New IP prefixes of a bulk BST load, per IP dimension, staged for
  /// one rebuild at the end instead of one rebuild per rule.
  using BstStaging =
      std::array<std::vector<std::pair<ruleset::SegmentPrefix, Label>>, 4>;

  /// Acquire all 7 labels for a rule, inserting/refreshing engine state
  /// as needed. When \p bst_bulk is non-null (bulk load under BST), new
  /// IP prefixes are staged there. A throw part-way (e.g. a label table
  /// out of labels) releases what this rule acquired before it
  /// propagates, so a failed add leaves every table as it found it.
  std::array<Label, kNumDimensions> acquire_labels(const ruleset::Rule& r,
                                                   hw::CommandLog& log,
                                                   BstStaging* bst_bulk);

  /// Acquire \p r's labels and insert it into the Rule Filter, rolling
  /// the labels back if the insert throws. The caller has checked ids
  /// and duplicates.
  void install_rule(const ruleset::Rule& r, hw::CommandLog& log,
                    BstStaging* bst_bulk);

  /// The installed rule whose match part equals \p r's, found on the
  /// device itself: equal match parts take the same 7 labels, so the
  /// Rule Filter holds their merged key. A field value without a label
  /// has no rule. Looks up without charge and mutates nothing.
  [[nodiscard]] std::optional<RuleId> installed_match(
      const ruleset::Rule& r) const;

  /// Release a rule's labels, removing/refreshing engine state as
  /// needed. The rollback of a part-way acquire passes \p steps < 7 (the
  /// label steps taken, in acquire order: four IP segments, source port,
  /// destination port, protocol), \p last_written = false when the last
  /// step's engine write did not land, and the same \p bst_bulk.
  void release_labels(const ruleset::Rule& r, hw::CommandLog& log,
                      BstStaging* bst_bulk = nullptr,
                      usize steps = kNumDimensions, bool last_written = true);

  /// Make room for one more rule in every prefix table, so the prefix
  /// update that follows a Rule Filter insert cannot throw.
  void reserve_prefixes();

  /// Add (\p add) or drop the prefixes of one rule's \p labels,
  /// metering on \p log every entry that flips present/absent.
  void update_prefixes(const std::array<Label, kNumDimensions>& labels,
                       bool add, hw::CommandLog& log);

  /// Add a metered command batch to the device's cumulative update
  /// stats; returns the batch stats.
  hw::UpdateStats apply(const hw::CommandLog& log);

  /// Phase-2 lookup of one IP dimension through the active engine.
  [[nodiscard]] alg::ListRef ip_lookup(usize ip_dim_index, u16 key,
                                       hw::CycleRecorder* rec) const;

  /// Phases 3+4 of CrossProduct: a depth-first search over the 7 label
  /// lists (\p lists, indexed by dimension) that returns the exact HPMR.
  /// Labels are walked best bound first; a list is abandoned once its
  /// bound is strictly worse than the best hit, and a subtree whose
  /// label prefix no installed rule has is skipped. Every prefix check
  /// charges one cycle and one access to \p tail, every probe its Rule
  /// Filter walk.
  [[nodiscard]] CombineOutcome combine_exact(
      const std::array<std::span<const Label>, kNumDimensions>& lists,
      hw::CycleRecorder& tail) const;

  void rebuild_active_ip_engines(hw::CommandLog& log);

  /// Insert into the rule filter, automatically re-seeding the hash and
  /// re-uploading the table when a probe-bound CapacityError hits (the
  /// controller-side recovery §IV.A implies).
  void filter_insert_with_reseed(const Key68& key, const RuleEntry& entry,
                                 hw::CommandLog& log);

  ClassifierConfig cfg_;
  /// Rule Filter hash seed; each reseed steps it (the controller
  /// re-seeds on pathological clustering).
  u64 hash_seed_ = 0x9E3779B97F4A7C15ULL;
  u32 reseed_attempts_ = 0;
  // Controller-side label bookkeeping.
  std::array<alg::LabelTable<ruleset::SegmentPrefix>, 4> ip_tables_;
  alg::LabelTable<ruleset::PortRange> sport_table_;
  alg::LabelTable<ruleset::PortRange> dport_table_;
  alg::LabelTable<ruleset::ProtoMatch> proto_table_;
  std::array<std::vector<Priority>, kNumDimensions> label_prio_;
  /// Label-prefix tables of the exact combine, depths 1..kPrefixDepths.
  std::array<PrefixSet, kPrefixDepths> prefixes_;

  // Device-side blocks.
  std::array<std::unique_ptr<alg::LabelListStore>, 4> lists_;
  std::array<std::unique_ptr<hw::SharedMemory>, 4> shared_;
  std::array<std::unique_ptr<alg::MultiBitTrie>, 4> mbt_;
  std::array<std::unique_ptr<alg::BinarySearchTree>, 4> bst_;
  std::array<std::unique_ptr<alg::RangeVectorHash>, 4> rvh_;
  std::unique_ptr<alg::PortRegisterFile> sport_regs_;
  std::unique_ptr<alg::PortRegisterFile> dport_regs_;
  std::unique_ptr<alg::ProtocolLut> proto_lut_;
  std::unique_ptr<RuleFilter> rule_filter_;

  hw::UpdateStats update_stats_;  ///< every batch applied so far
  std::map<RuleId, InstalledRule> installed_;
};

}  // namespace pclass::core
