#include "core/classifier.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/small_vec.hpp"

namespace pclass::core {

namespace {

hw::SharedRole role_of(IpAlgorithm a) {
  // Only the two paper engines time-share the Fig. 5 block; the RVH
  // owns its table, so this is never called with kRvh.
  return a == IpAlgorithm::kMbt ? hw::SharedRole::kMbtLevel2
                                : hw::SharedRole::kBstNodes;
}

u64 ipalg_signal(IpAlgorithm a) {
  switch (a) {
    case IpAlgorithm::kMbt: return 0;
    case IpAlgorithm::kBst: return 1;
    case IpAlgorithm::kRvh: return 2;
  }
  return 0;
}

constexpr unsigned kSharedWordBits = 33;  // max(MBT entry 29, BST node 33)

/// Dimension order of the exact combine's search and of its prefix
/// tables: destination before source and IP before ports, the order
/// whose prefixes prune best on ClassBench-like sets. Fixed, because the
/// tables are keyed by it.
constexpr std::array<Dimension, kNumDimensions> kCombineOrder = {
    Dimension::kDstIpHi, Dimension::kDstIpLo, Dimension::kSrcIpHi,
    Dimension::kSrcIpLo, Dimension::kProtocol, Dimension::kDstPort,
    Dimension::kSrcPort};

/// Width of a packed depth-\p k prefix: the labels of kCombineOrder[0..k]
/// (61 bits at depth 5, so every stored prefix fits a u64).
constexpr unsigned prefix_bits(usize k) {
  unsigned bits = 0;
  for (usize j = 0; j <= k; ++j) bits += label_bits(kCombineOrder[j]);
  return bits;
}

/// The packed prefix one search step deeper: \p prefix with dimension
/// \p d's label \p l appended as its least significant field.
constexpr u64 extend_prefix(u64 prefix, Dimension d, Label l) {
  return (prefix << label_bits(d)) | l.value;
}

std::string prefix_table_name(usize k) {
  return "combine.prefix" + std::to_string(k);
}

/// Reject an entry whose id/priority/action overflow the Rule Filter's
/// 16-bit fields before the update path mutates anything: the same throw
/// from RuleFilter::insert would come after the labels were acquired.
void check_entry_word(const char* who, const RuleEntry& e) {
  if (!e.fits_word()) {
    throw ConfigError(std::string(who) +
                      ": rule id/priority/action exceed the 16-bit Rule "
                      "Filter entry fields");
  }
}

}  // namespace

ConfigurableClassifier::ConfigurableClassifier(ClassifierConfig cfg)
    : cfg_(std::move(cfg)),
      ip_tables_{alg::LabelTable<ruleset::SegmentPrefix>(Dimension::kSrcIpHi),
                 alg::LabelTable<ruleset::SegmentPrefix>(Dimension::kSrcIpLo),
                 alg::LabelTable<ruleset::SegmentPrefix>(Dimension::kDstIpHi),
                 alg::LabelTable<ruleset::SegmentPrefix>(
                     Dimension::kDstIpLo)},
      sport_table_(Dimension::kSrcPort),
      dport_table_(Dimension::kDstPort),
      proto_table_(Dimension::kProtocol) {
  for (Dimension d : kAllDimensions) {
    label_prio_[index_of(d)].assign(usize{1} << label_bits(d), kNoPriority);
  }

  const u32 mbt_l2_depth =
      cfg_.mbt.level_capacity.size() > 1 && cfg_.mbt.strides.size() > 1
          ? cfg_.mbt.level_capacity[1] * (u32{1} << cfg_.mbt.strides[1])
          : 0;
  const u32 shared_depth = std::max(mbt_l2_depth, cfg_.bst.max_nodes);

  for (usize i = 0; i < 4; ++i) {
    const Dimension d = kIpDims[i];
    const std::string name = std::string("ip.") + to_string(d);
    lists_[i] = std::make_unique<alg::LabelListStore>(
        name + ".labels", cfg_.label_store_depth, kIpLabelBits);

    auto prio_cb = [this, idx = index_of(d)](Label l) {
      return label_prio_[idx][l.value];
    };

    alg::MbtConfig mc = cfg_.mbt;
    alg::BstConfig bc = cfg_.bst;
    hw::Memory* shared_block = nullptr;
    if (cfg_.share_ip_memory) {
      shared_[i] = std::make_unique<hw::SharedMemory>(
          name + ".shared", shared_depth, kSharedWordBits);
      shared_block = &shared_[i]->block();
      mc.word_bits_override = kSharedWordBits;
      bc.word_bits_override = kSharedWordBits;
    }
    mbt_[i] = std::make_unique<alg::MultiBitTrie>(
        name + ".mbt", mc, *lists_[i], prio_cb, shared_block,
        /*shared_level_index=*/1);
    bst_[i] = std::make_unique<alg::BinarySearchTree>(name, bc, *lists_[i],
                                                      prio_cb, shared_block);
    rvh_[i] = std::make_unique<alg::RangeVectorHash>(name, cfg_.rvh,
                                                     *lists_[i], prio_cb);
    if (cfg_.share_ip_memory && cfg_.ip_algorithm != IpAlgorithm::kRvh) {
      shared_[i]->bind(role_of(cfg_.ip_algorithm));
    }
  }

  sport_regs_ = std::make_unique<alg::PortRegisterFile>("port.src",
                                                        cfg_.ports);
  dport_regs_ = std::make_unique<alg::PortRegisterFile>("port.dst",
                                                        cfg_.ports);
  proto_lut_ = std::make_unique<alg::ProtocolLut>("proto");
  rule_filter_ = std::make_unique<RuleFilter>(
      "rule_filter", cfg_.rule_filter_depth, cfg_.rule_filter_max_probes,
      cfg_.hash_seed);
}

ConfigurableClassifier::~ConfigurableClassifier() = default;

ruleset::SegmentPrefix ConfigurableClassifier::ip_segment(
    const ruleset::Rule& r, usize ip_dim_index) {
  switch (ip_dim_index) {
    case 0: return r.src_ip.hi_segment();
    case 1: return r.src_ip.lo_segment();
    case 2: return r.dst_ip.hi_segment();
    case 3: return r.dst_ip.lo_segment();
    default: throw InternalError("bad ip dimension index");
  }
}

void ConfigurableClassifier::reserve_prefixes(usize rules) {
  // Each rule adds at most one entry per table; sizing by the table's
  // own count keeps the shallow tables, which hold far fewer prefixes
  // than there are rules, small on the one-rule update path.
  for (PrefixSet& t : prefixes_) t.reserve(t.size() + rules);
}

void ConfigurableClassifier::update_prefixes(
    const std::array<Label, kNumDimensions>& labels, bool add,
    hw::CommandLog& log) {
  std::array<u64, kPrefixDepths + 1> key{};
  key[0] = labels[index_of(kCombineOrder[0])].value;
  for (usize k = 1; k <= kPrefixDepths; ++k) {
    const Dimension d = kCombineOrder[k];
    key[k] = extend_prefix(key[k - 1], d, labels[index_of(d)]);
  }
  // A deepest entry counts its rules and every shallower entry its
  // present children, so an update climbs from the deepest table only
  // while entries flip, stopping at the first ancestor whose presence
  // holds.
  for (usize k = kPrefixDepths; k >= 1; --k) {
    PrefixSet& t = prefixes_[k - 1];
    if (!(add ? t.add(key[k]) : t.remove(key[k]))) break;
    log.prefix_entry();
  }
}

hw::UpdateStats ConfigurableClassifier::apply(hw::CommandLog& log) {
  hw::UpdateBus batch;
  for (const hw::UpdateCommand& cmd : log.take()) {
    bus_.charge(cmd);
    batch.charge(cmd);
  }
  bus_.charge_prefix_writes(log.prefix_entries());
  batch.charge_prefix_writes(log.prefix_entries());
  return batch.stats();
}

std::array<Label, kNumDimensions> ConfigurableClassifier::acquire_labels(
    const ruleset::Rule& r, hw::CommandLog& log, BstStaging* bst_bulk) {
  std::array<Label, kNumDimensions> labels{};
  // Label steps taken so far (release_labels order) and whether the
  // last one's engine write landed: exactly what a throw rolls back.
  usize steps = 0;
  bool written = true;
  try {
    for (usize i = 0; i < 4; ++i) {
      const Dimension d = kIpDims[i];
      const ruleset::SegmentPrefix v = ip_segment(r, i);
      const alg::AcquireResult acq = ip_tables_[i].acquire(v, r.priority);
      ++steps;
      written = false;
      labels[index_of(d)] = acq.label;
      const Priority best = ip_tables_[i].best_priority(v);
      Priority& shadow = label_prio_[index_of(d)][acq.label.value];
      if (acq.created) {
        shadow = best;
        switch (cfg_.ip_algorithm) {
          case IpAlgorithm::kMbt:
            mbt_[i]->insert(v, acq.label, log);
            break;
          case IpAlgorithm::kRvh:
            rvh_[i]->insert(v, acq.label, log);
            break;
          case IpAlgorithm::kBst:
            if (bst_bulk != nullptr) {
              (*bst_bulk)[i].emplace_back(v, acq.label);
            } else {
              bst_[i]->insert(v, acq.label, log);
            }
            break;
        }
      } else if (shadow != best) {
        shadow = best;
        switch (cfg_.ip_algorithm) {
          case IpAlgorithm::kMbt:
            mbt_[i]->refresh(v, log);
            break;
          case IpAlgorithm::kRvh:
            rvh_[i]->refresh(v, log);
            break;
          case IpAlgorithm::kBst:
            // bulk BST: the single rebuild at the end re-sorts everything
            if (bst_bulk == nullptr) {
              bst_[i]->refresh(v, log);
            }
            break;
        }
      }
      written = true;
    }

    auto do_port = [&](alg::LabelTable<ruleset::PortRange>& table,
                       alg::PortRegisterFile& regs,
                       const ruleset::PortRange& v, Dimension d) {
      const alg::AcquireResult acq = table.acquire(v, r.priority);
      ++steps;
      written = false;
      labels[index_of(d)] = acq.label;
      label_prio_[index_of(d)][acq.label.value] = table.best_priority(v);
      if (acq.created) {
        regs.insert(v, acq.label, log);
      }
      written = true;
    };
    do_port(sport_table_, *sport_regs_, r.src_port, Dimension::kSrcPort);
    do_port(dport_table_, *dport_regs_, r.dst_port, Dimension::kDstPort);

    const alg::AcquireResult acq = proto_table_.acquire(r.proto, r.priority);
    ++steps;
    written = false;
    labels[index_of(Dimension::kProtocol)] = acq.label;
    label_prio_[index_of(Dimension::kProtocol)][acq.label.value] =
        proto_table_.best_priority(r.proto);
    if (acq.created) {
      proto_lut_->insert(r.proto, acq.label, log);
    }
  } catch (...) {
    release_labels(r, log, bst_bulk, steps, written);
    throw;
  }
  return labels;
}

void ConfigurableClassifier::release_labels(const ruleset::Rule& r,
                                            hw::CommandLog& log,
                                            BstStaging* bst_bulk, usize steps,
                                            bool last_written) {
  // Does step k's engine entry exist to be removed or refreshed?
  const auto written = [&](usize k) { return k + 1 < steps || last_written; };
  for (usize i = 0; i < 4 && i < steps; ++i) {
    const Dimension d = kIpDims[i];
    const ruleset::SegmentPrefix v = ip_segment(r, i);
    const alg::ReleaseResult rel = ip_tables_[i].release(v, r.priority);
    if (rel.freed) {
      label_prio_[index_of(d)][rel.label.value] = kNoPriority;
      if (!written(i)) continue;
      if (bst_bulk != nullptr) {
        // Freed means this rule created it, so it was staged last.
        (*bst_bulk)[i].pop_back();
        continue;
      }
      switch (cfg_.ip_algorithm) {
        case IpAlgorithm::kMbt: mbt_[i]->remove(v, log); break;
        case IpAlgorithm::kBst: bst_[i]->remove(v, log); break;
        case IpAlgorithm::kRvh: rvh_[i]->remove(v, log); break;
      }
    } else {
      const Priority best = ip_tables_[i].best_priority(v);
      Priority& shadow = label_prio_[index_of(d)][rel.label.value];
      if (shadow != best) {
        shadow = best;
        switch (cfg_.ip_algorithm) {
          case IpAlgorithm::kMbt: mbt_[i]->refresh(v, log); break;
          case IpAlgorithm::kBst:
            if (bst_bulk == nullptr) bst_[i]->refresh(v, log);
            break;
          case IpAlgorithm::kRvh: rvh_[i]->refresh(v, log); break;
        }
      }
    }
  }

  auto do_port = [&](usize k, alg::LabelTable<ruleset::PortRange>& table,
                     alg::PortRegisterFile& regs,
                     const ruleset::PortRange& v, Dimension d) {
    if (k >= steps) return;
    const alg::ReleaseResult rel = table.release(v, r.priority);
    if (rel.freed) {
      label_prio_[index_of(d)][rel.label.value] = kNoPriority;
      if (written(k)) regs.remove(v, log);
    } else {
      label_prio_[index_of(d)][rel.label.value] = table.best_priority(v);
    }
  };
  do_port(4, sport_table_, *sport_regs_, r.src_port, Dimension::kSrcPort);
  do_port(5, dport_table_, *dport_regs_, r.dst_port, Dimension::kDstPort);

  if (steps < kNumDimensions) return;
  const alg::ReleaseResult rel = proto_table_.release(r.proto, r.priority);
  if (rel.freed) {
    label_prio_[index_of(Dimension::kProtocol)][rel.label.value] =
        kNoPriority;
    if (written(6)) proto_lut_->remove(r.proto, log);
  } else {
    label_prio_[index_of(Dimension::kProtocol)][rel.label.value] =
        proto_table_.best_priority(r.proto);
  }
}

hw::UpdateStats ConfigurableClassifier::add_rule(const ruleset::Rule& r) {
  if (!r.id.valid()) {
    throw ConfigError("add_rule: rule must carry a valid RuleId");
  }
  check_entry_word("add_rule", RuleEntry{r.id, r.priority, r.action.token});
  if (installed_.contains(r.id)) {
    throw ConfigError("add_rule: duplicate rule id " +
                      std::to_string(r.id.value));
  }
  const u64 fp = ruleset::match_fingerprint(r);
  if (match_index_.contains(fp)) {
    throw ConfigError("add_rule: a rule with an identical match part is "
                      "already installed (id " +
                      std::to_string(match_index_.at(fp).value) + ")");
  }
  hw::CommandLog log;
  install_rule(r, fp, log, nullptr);
  return apply(log);
}

void ConfigurableClassifier::install_rule(const ruleset::Rule& r, u64 fp,
                                          hw::CommandLog& log,
                                          BstStaging* bst_bulk) {
  const std::array<Label, kNumDimensions> labels =
      acquire_labels(r, log, bst_bulk);
  log.hash_compute("rule_filter.hash");
  try {
    reserve_prefixes(1);  // so the prefix update below cannot throw
    filter_insert_with_reseed(Key68::merge(labels),
                              RuleEntry{r.id, r.priority, r.action.token},
                              log);
  } catch (...) {
    release_labels(r, log, bst_bulk);  // e.g. the Rule Filter is full
    throw;
  }
  update_prefixes(labels, /*add=*/true, log);
  installed_.emplace(r.id, InstalledRule{r, labels});
  match_index_.emplace(fp, r.id);
}

hw::UpdateStats ConfigurableClassifier::add_rules(
    const ruleset::RuleSet& rules) {
  hw::CommandLog log;
  BstStaging staged;
  auto* bulk = cfg_.ip_algorithm == IpAlgorithm::kBst ? &staged : nullptr;

  for (const ruleset::Rule& r : rules) {
    if (!r.id.valid()) {
      throw ConfigError("add_rules: rule must carry a valid RuleId");
    }
    check_entry_word("add_rules",
                     RuleEntry{r.id, r.priority, r.action.token});
  }
  reserve_prefixes(rules.size());
  const auto flush_staged = [&] {
    if (bulk == nullptr) return;
    for (usize i = 0; i < 4; ++i) {
      bst_[i]->insert_bulk(staged[i], log);
    }
  };
  try {
    for (const ruleset::Rule& r : rules) {
      if (installed_.contains(r.id)) {
        throw ConfigError("add_rules: duplicate rule id " +
                          std::to_string(r.id.value));
      }
      const u64 fp = ruleset::match_fingerprint(r);
      if (match_index_.contains(fp)) {
        throw ConfigError("add_rules: duplicate match part (dedup the set "
                          "first)");
      }
      install_rule(r, fp, log, bulk);
    }
  } catch (...) {
    // The rules before the failing one stay installed: hand the BST
    // their staged prefixes and charge their commands, then rethrow.
    flush_staged();
    apply(log);
    throw;
  }
  flush_staged();
  return apply(log);
}

hw::UpdateStats ConfigurableClassifier::remove_rule(RuleId id) {
  const auto it = installed_.find(id);
  if (it == installed_.end()) {
    throw ConfigError("remove_rule: rule " + std::to_string(id.value) +
                      " is not installed");
  }
  hw::CommandLog log;
  rule_filter_->remove(Key68::merge(it->second.labels), log);
  update_prefixes(it->second.labels, /*add=*/false, log);
  release_labels(it->second.rule, log);
  match_index_.erase(ruleset::match_fingerprint(it->second.rule));
  installed_.erase(it);
  return apply(log);
}

void ConfigurableClassifier::filter_insert_with_reseed(
    const Key68& key, const RuleEntry& entry, hw::CommandLog& log) {
  constexpr u32 kMaxReseeds = 16;
  while (true) {
    try {
      rule_filter_->insert(key, entry, log);
      return;
    } catch (const CapacityError&) {
      if (rule_filter_->size() + 1 > rule_filter_->memory().depth()) {
        throw;  // genuinely full: no seed can help
      }
      // Try successive salts; each reseed re-uploads the whole table
      // through the log, so the caller sees the true recovery cost.
      // reseed() restores the previous layout when a candidate seed
      // fails, so state stays consistent throughout.
      bool reseeded = false;
      while (!reseeded && reseed_attempts_ < kMaxReseeds) {
        ++reseed_attempts_;
        cfg_.hash_seed = mix64(cfg_.hash_seed + reseed_attempts_);
        try {
          rule_filter_->reseed(cfg_.hash_seed, log);
          reseeded = true;
        } catch (const CapacityError&) {
          // candidate seed also clusters; try the next one
        }
      }
      if (!reseeded) {
        throw;
      }
    }
  }
}

hw::UpdateStats ConfigurableClassifier::modify_rule(RuleId id,
                                                    ruleset::Action action) {
  const auto it = installed_.find(id);
  if (it == installed_.end()) {
    throw ConfigError("modify_rule: rule " + std::to_string(id.value) +
                      " is not installed");
  }
  ruleset::Rule& rule = it->second.rule;
  const RuleEntry entry{rule.id, rule.priority, action.token};
  check_entry_word("modify_rule", entry);
  hw::CommandLog log;
  rule.action = action;
  log.hash_compute("rule_filter.hash");
  rule_filter_->modify(Key68::merge(it->second.labels), entry, log);
  return apply(log);
}

hw::UpdateStats ConfigurableClassifier::set_ip_algorithm(IpAlgorithm alg) {
  if (alg == cfg_.ip_algorithm) {
    return {};
  }
  hw::CommandLog log;
  // 1. Clear the deactivating engines while their binding is still live.
  for (usize i = 0; i < 4; ++i) {
    switch (cfg_.ip_algorithm) {
      case IpAlgorithm::kMbt: mbt_[i]->clear(log); break;
      case IpAlgorithm::kBst: bst_[i]->clear(log); break;
      case IpAlgorithm::kRvh: rvh_[i]->clear(log); break;
    }
  }
  // 2. Flush + re-bind the shared blocks (Fig. 5). The RVH owns its
  // table, so selecting it leaves the shared blocks bound (and empty)
  // where the last trie-family engine left them.
  if (cfg_.share_ip_memory && alg != IpAlgorithm::kRvh) {
    for (usize i = 0; i < 4; ++i) {
      shared_[i]->bind(role_of(alg));
    }
  }
  // 3. Drive the select line.
  log.config_toggle("IPalg_s", ipalg_signal(alg));
  cfg_.ip_algorithm = alg;
  // 4. Rebuild the newly selected engines from the label tables.
  rebuild_active_ip_engines(log);
  return apply(log);
}

void ConfigurableClassifier::rebuild_active_ip_engines(hw::CommandLog& log) {
  for (usize i = 0; i < 4; ++i) {
    std::vector<std::pair<ruleset::SegmentPrefix, Label>> live;
    ip_tables_[i].for_each(
        [&](const ruleset::SegmentPrefix& v, Label l, Priority) {
          live.emplace_back(v, l);
        });
    if (cfg_.ip_algorithm == IpAlgorithm::kBst) {
      bst_[i]->insert_bulk(live, log);
    } else if (cfg_.ip_algorithm == IpAlgorithm::kRvh) {
      for (const auto& [v, l] : live) {
        rvh_[i]->insert(v, l, log);
      }
    } else {
      for (const auto& [v, l] : live) {
        mbt_[i]->insert(v, l, log);
      }
    }
  }
}

alg::ListRef ConfigurableClassifier::ip_lookup(usize ip_dim_index, u16 key,
                                               hw::CycleRecorder* rec) const {
  switch (cfg_.ip_algorithm) {
    case IpAlgorithm::kMbt: return mbt_[ip_dim_index]->lookup(key, rec);
    case IpAlgorithm::kBst: return bst_[ip_dim_index]->lookup(key, rec);
    case IpAlgorithm::kRvh: return rvh_[ip_dim_index]->lookup(key, rec);
  }
  return alg::ListRef{};
}

ClassifyResult ConfigurableClassifier::classify(
    const net::FiveTuple& h) const {
  ClassifyResult out;

  // Phase 2: the seven dimension lookups run in parallel; each gets its
  // own recorder, the phase costs the slowest one. All label lists live
  // in stack scratch (SmallVec) — the steady-state lookup path performs
  // no heap allocation.
  std::array<hw::CycleRecorder, kNumDimensions> recs;
  std::array<alg::ListRef, 4> ip_refs;
  for (usize i = 0; i < 4; ++i) {
    const u16 key = static_cast<u16>(
        net::dimension_key(h, kIpDims[i]) & 0xFFFFu);
    ip_refs[i] = ip_lookup(i, key, &recs[index_of(kIpDims[i])]);
  }

  hw::CycleRecorder tail;  // phases 3 + 4
  tail.charge(1, 0);       // label merge network

  if (cfg_.combine_mode == CombineMode::kFirstLabel) {
    // §III.B: "This combination is the product of the highest priority
    // label stored in the first position in the list of each output
    // algorithm." Only the first label of each dimension is needed, so
    // no lists are materialized at all.
    std::array<Label, kNumDimensions> first{};
    first[index_of(Dimension::kSrcPort)] = sport_regs_->lookup_first(
        h.src_port, &recs[index_of(Dimension::kSrcPort)]);
    first[index_of(Dimension::kDstPort)] = dport_regs_->lookup_first(
        h.dst_port, &recs[index_of(Dimension::kDstPort)]);
    first[index_of(Dimension::kProtocol)] = proto_lut_->lookup_first(
        h.protocol, &recs[index_of(Dimension::kProtocol)]);
    bool miss = !first[index_of(Dimension::kSrcPort)].valid() ||
                !first[index_of(Dimension::kDstPort)].valid() ||
                !first[index_of(Dimension::kProtocol)].valid();
    for (usize i = 0; i < 4 && !miss; ++i) {
      if (ip_refs[i].empty()) {
        miss = true;
        break;
      }
      first[index_of(kIpDims[i])] =
          lists_[i]->read_first(ip_refs[i], &recs[index_of(kIpDims[i])]);
    }
    if (!miss) {
      out.crossproduct_probes = 1;
      out.match = rule_filter_->lookup(Key68::merge(first), &tail);
    }
  } else {
    // CrossProduct: the exact HPMR over the (short) label lists.
    std::array<LabelVec, kNumDimensions> lists;
    bool miss = false;
    for (usize i = 0; i < 4; ++i) {
      lists_[i]->read_list_into(ip_refs[i], &recs[index_of(kIpDims[i])],
                                lists[index_of(kIpDims[i])]);
      if (lists[index_of(kIpDims[i])].empty()) miss = true;
    }
    sport_regs_->lookup_into(h.src_port,
                             &recs[index_of(Dimension::kSrcPort)],
                             lists[index_of(Dimension::kSrcPort)]);
    dport_regs_->lookup_into(h.dst_port,
                             &recs[index_of(Dimension::kDstPort)],
                             lists[index_of(Dimension::kDstPort)]);
    proto_lut_->lookup_into(h.protocol,
                            &recs[index_of(Dimension::kProtocol)],
                            lists[index_of(Dimension::kProtocol)]);
    if (lists[index_of(Dimension::kSrcPort)].empty() ||
        lists[index_of(Dimension::kDstPort)].empty() ||
        lists[index_of(Dimension::kProtocol)].empty()) {
      miss = true;
    }

    if (!miss) {
      std::array<std::span<const Label>, kNumDimensions> spans;
      for (usize d = 0; d < kNumDimensions; ++d) {
        spans[d] = {lists[d].begin(), lists[d].size()};
      }
      const CombineOutcome c = combine_exact(spans, tail);
      out.match = c.match;
      out.crossproduct_probes = c.probes;
    }
  }

  u64 phase2_cycles = 0;
  for (const auto& r : recs) {
    phase2_cycles = std::max(phase2_cycles, r.cycles());
    out.memory_accesses += r.memory_accesses();
  }
  out.cycles = 1 /*split*/ + phase2_cycles + tail.cycles();
  out.memory_accesses += tail.memory_accesses();
  return out;
}

ConfigurableClassifier::CombineOutcome ConfigurableClassifier::combine_exact(
    const std::array<std::span<const Label>, kNumDimensions>& lists,
    hw::CycleRecorder& tail) const {
  // Each list in search order, best bound first. Ties go by label value,
  // so the walk (and every charge it makes) depends only on the lists'
  // contents, never on their order.
  struct Ranked {
    Priority bound;
    Label label;
  };
  std::array<SmallVec<Ranked, 16>, kNumDimensions> ranked;
  for (usize j = 0; j < kNumDimensions; ++j) {
    const usize d = index_of(kCombineOrder[j]);
    SmallVec<Ranked, 16>& out = ranked[j];
    for (const Label l : lists[d]) {
      const Ranked r{label_prio_[d][l.value], l};
      out.push_back(r);
      usize i = out.size() - 1;
      for (; i > 0 && (out[i - 1].bound > r.bound ||
                       (out[i - 1].bound == r.bound &&
                        out[i - 1].label.value > r.label.value));
           --i) {
        out[i] = out[i - 1];
      }
      out[i] = r;
    }
  }

  // A rule carries each of its labels, so its priority is no better than
  // the worst bound on the path to it. Once that is strictly worse than
  // the best hit, no later label of the list can win either; an equal
  // bound is still walked, for the lower-id tie-break.
  CombineOutcome res;
  std::array<Label, kNumDimensions> combo{};
  const auto walk = [&](const auto& self, usize j, u64 prefix,
                        Priority bound) -> void {
    const Dimension dim = kCombineOrder[j];
    for (const Ranked& r : ranked[j]) {
      const Priority b = std::max(bound, r.bound);
      if (res.match && b > res.match->priority) break;
      combo[index_of(dim)] = r.label;
      if (j + 1 == kNumDimensions) {
        if (++res.probes > cfg_.max_crossproduct_probes) {
          throw InternalError("combine: probe bound exceeded — label "
                              "lists pathologically long");
        }
        const std::optional<RuleEntry> hit =
            rule_filter_->lookup(Key68::merge(combo), &tail);
        if (hit && (!res.match || hit->priority < res.match->priority ||
                    (hit->priority == res.match->priority &&
                     hit->rule < res.match->rule))) {
          res.match = hit;
        }
        continue;
      }
      const u64 next = extend_prefix(prefix, dim, r.label);
      if (j > 0) {
        tail.charge(1, 1);  // prefix-table read
        if (!prefixes_[j - 1].contains(next)) continue;
      }
      self(self, j + 1, next, b);
    }
  };
  walk(walk, 0, 0, 0);
  return res;
}

ClassifyResult ConfigurableClassifier::classify_packet(
    std::span<const u8> bytes) const {
  const std::optional<net::FiveTuple> t = net::parse_five_tuple(bytes);
  if (!t) {
    ClassifyResult miss;
    miss.cycles = 1;  // drop in the parser stage
    return miss;
  }
  return classify(*t);
}

void ConfigurableClassifier::classify_batch(
    std::span<const net::FiveTuple> in,
    std::span<ClassifyResult> out) const {
  if (out.size() < in.size()) {
    throw ConfigError("classify_batch: output span smaller than input");
  }
  for (usize i = 0; i < in.size(); ++i) {
    out[i] = classify(in[i]);
  }
}

std::vector<ruleset::Rule> ConfigurableClassifier::installed_rules() const {
  std::vector<ruleset::Rule> out;
  out.reserve(installed_.size());
  for (const auto& [id, ir] : installed_) {
    out.push_back(ir.rule);
  }
  return out;
}

std::optional<ruleset::Rule> ConfigurableClassifier::installed_rule(
    RuleId id) const {
  const auto it = installed_.find(id);
  if (it == installed_.end()) return std::nullopt;
  return it->second.rule;
}

hw::Pipeline ConfigurableClassifier::lookup_pipeline() const {
  u64 ip_latency, ip_ii;
  if (cfg_.ip_algorithm == IpAlgorithm::kMbt) {
    ip_latency = u64{cfg_.mbt.read_cycles} * cfg_.mbt.strides.size() + 1;
    ip_ii = 1;  // fully pipelined levels
  } else if (cfg_.ip_algorithm == IpAlgorithm::kRvh) {
    // Worst case probes every live range-vector signature once: one
    // hash cycle plus one table read per signature group.
    u64 groups = 1;
    for (usize i = 0; i < 4; ++i) {
      groups = std::max<u64>(groups, rvh_[i]->live_length_count());
    }
    ip_latency = groups * (u64{cfg_.rvh.read_cycles} + 1) + 1;
    ip_ii = groups;  // iterative probe loop on one port: not pipelined
  } else {
    u64 depth = 1;
    for (usize i = 0; i < 4; ++i) {
      depth = std::max<u64>(depth, bst_[i]->depth());
    }
    ip_latency = depth * cfg_.bst.read_cycles + 1;
    ip_ii = depth;  // iterative walk on one port: not pipelined
  }
  const u64 field_latency = std::max<u64>(ip_latency, 2);
  return hw::Pipeline{{
      {"header-split", 1, 1},
      {"field-lookup", field_latency, ip_ii},
      {"label-combine", 2, 1},
      {"rule-filter", 1, 1},
  }};
}

MemoryReport ConfigurableClassifier::memory_report() const {
  MemoryReport rep;
  auto add = [&](const std::string& name, u64 cap, u64 used) {
    rep.blocks.push_back({name, cap, used});
    rep.total_capacity_bits += cap;
    rep.total_used_bits += used;
  };

  for (usize i = 0; i < 4; ++i) {
    const auto& strides = cfg_.mbt.strides;
    for (usize k = 0; k < mbt_[i]->levels(); ++k) {
      const hw::Memory& m = mbt_[i]->level_memory(k);
      const bool is_shared = cfg_.share_ip_memory && k == 1;
      const u64 mbt_used = static_cast<u64>(mbt_[i]->node_count(k)) *
                           (u64{1} << strides[k]) * m.word_bits();
      if (is_shared) {
        // The RVH owns its table, so with it selected the shared block
        // holds no live engine data at all.
        const u64 used = cfg_.ip_algorithm == IpAlgorithm::kMbt
                             ? mbt_used
                         : cfg_.ip_algorithm == IpAlgorithm::kBst
                             ? bst_[i]->live_node_bits()
                             : 0;
        add(shared_[i]->physical().name(), m.capacity_bits(), used);
      } else {
        add(m.name(), m.capacity_bits(), mbt_used);
      }
    }
    if (!cfg_.share_ip_memory) {
      add(bst_[i]->memory().name(), bst_[i]->capacity_bits(),
          bst_[i]->live_node_bits());
    }
    add(rvh_[i]->memory().name(), rvh_[i]->capacity_bits(),
        rvh_[i]->live_node_bits());
    add(lists_[i]->memory().name(), lists_[i]->memory().capacity_bits(),
        lists_[i]->live_bits());
  }
  add(proto_lut_->memory().name(), proto_lut_->memory().capacity_bits(),
      proto_lut_->memory().capacity_bits());
  add(rule_filter_->memory().name(),
      rule_filter_->memory().capacity_bits(),
      u64{rule_filter_->size()} * rule_filter_->memory().word_bits());
  if (cfg_.combine_mode == CombineMode::kCrossProduct) {
    // The exact combine's prefix tables (kept current in every mode, but
    // only the exact combine reads them): a valid bit plus the packed
    // prefix per entry, at most one entry per rule the filter can hold.
    for (usize k = 1; k <= kPrefixDepths; ++k) {
      const u64 word = prefix_bits(k) + 1;
      add(prefix_table_name(k), u64{cfg_.rule_filter_depth} * word,
          u64{prefixes_[k - 1].size()} * word);
    }
  }

  rep.register_bits = sport_regs_->registers().total_bits() +
                      dport_regs_->registers().total_bits() +
                      proto_lut_->wildcard_register().total_bits();
  return rep;
}

hw::SynthesisReport ConfigurableClassifier::synthesis_report() const {
  hw::SynthesisModel sm;
  for (usize i = 0; i < 4; ++i) {
    for (usize k = 0; k < mbt_[i]->levels(); ++k) {
      sm.add_memory(mbt_[i]->level_memory(k));  // shared block counted here
    }
    if (!cfg_.share_ip_memory) {
      sm.add_memory(bst_[i]->memory());
    }
    sm.add_memory(rvh_[i]->memory());
    sm.add_memory(lists_[i]->memory());
  }
  sm.add_memory(proto_lut_->memory());
  sm.add_memory(rule_filter_->memory());
  if (cfg_.combine_mode == CombineMode::kCrossProduct) {
    for (usize k = 1; k <= kPrefixDepths; ++k) {
      sm.add_block(u64{cfg_.rule_filter_depth} * (prefix_bits(k) + 1));
    }
  }
  sm.add_register_file(sport_regs_->registers());
  sm.add_register_file(dport_regs_->registers());
  sm.add_register_file(proto_lut_->wildcard_register());
  // Four pipeline phases; the inter-phase registers carry the split
  // header plus the widest intermediate (7 list pointers / 68-bit key).
  sm.add_pipeline_stages(4, 160);
  sm.add_hash_units(1);
  sm.set_fmax_mhz(cfg_.fmax_mhz);
  sm.set_pins_used(500);
  return sm.report();
}

usize ConfigurableClassifier::label_count(Dimension d) const {
  switch (d) {
    case Dimension::kSrcIpHi: return ip_tables_[0].size();
    case Dimension::kSrcIpLo: return ip_tables_[1].size();
    case Dimension::kDstIpHi: return ip_tables_[2].size();
    case Dimension::kDstIpLo: return ip_tables_[3].size();
    case Dimension::kSrcPort: return sport_table_.size();
    case Dimension::kDstPort: return dport_table_.size();
    case Dimension::kProtocol: return proto_table_.size();
  }
  return 0;
}

}  // namespace pclass::core
