#include "alg/multibit_trie.hpp"

#include <algorithm>
#include <array>
#include <cassert>

namespace pclass::alg {

namespace {

// Fixed pointer widths of the node-entry encoding. Level capacities and
// list-store depths are validated against them at construction.
constexpr unsigned kChildBits = 12;   // up to 4096 nodes per level
constexpr unsigned kAddrBits = 16;    // list store depth up to 65536
constexpr unsigned kMinWordBits = 1 + kChildBits + kAddrBits;

// Entry word layout (LSB first): child_valid(1) child(12) list_addr(16).
hw::Word encode_entry(bool child_valid, u64 child, u64 list_addr) {
  hw::WordPacker p;
  p.push(child_valid ? 1 : 0, 1);
  p.push(child, kChildBits);
  p.push(list_addr, kAddrBits);
  return p.word();
}

}  // namespace

MultiBitTrie::MultiBitTrie(const std::string& name, MbtConfig cfg,
                           LabelListStore& lists, const Priority* prio,
                           hw::Memory* shared_level,
                           usize shared_level_index)
    : cfg_(std::move(cfg)), lists_(&lists), prio_(prio) {
  if (cfg_.strides.empty()) {
    throw ConfigError("MultiBitTrie: need at least one stride");
  }
  unsigned sum = 0;
  for (unsigned s : cfg_.strides) {
    if (s == 0 || s > 12) {
      throw ConfigError("MultiBitTrie: stride must be in [1, 12]");
    }
    sum += s;
    cum_.push_back(sum);
  }
  if (sum != 16) {
    throw ConfigError("MultiBitTrie: strides must sum to 16 (one segment)");
  }
  if (cfg_.level_capacity.size() != cfg_.strides.size()) {
    throw ConfigError("MultiBitTrie: level_capacity size must match strides");
  }
  cfg_.level_capacity[0] = 1;  // exactly one root node
  for (u32 c : cfg_.level_capacity) {
    if (c == 0 || c > (u32{1} << kChildBits)) {
      throw ConfigError("MultiBitTrie: level capacity out of range");
    }
  }
  if (lists_->memory().depth() > (u32{1} << kAddrBits)) {
    throw ConfigError("MultiBitTrie: list store too deep for address field");
  }
  if (prio_ == nullptr) {
    throw ConfigError("MultiBitTrie: priority column required");
  }

  // The word-width override exists to match the shared block's geometry
  // (Fig. 5); owned levels always use the minimal entry width.
  const unsigned shared_word_bits =
      std::max(kMinWordBits, cfg_.word_bits_override == 0
                                 ? kMinWordBits
                                 : cfg_.word_bits_override);
  for (usize k = 0; k < cfg_.strides.size(); ++k) {
    const u32 depth = cfg_.level_capacity[k] * (u32{1} << cfg_.strides[k]);
    if (shared_level != nullptr && k == shared_level_index) {
      if (shared_level->depth() < depth ||
          shared_level->word_bits() < shared_word_bits) {
        throw ConfigError("MultiBitTrie: shared level memory too small");
      }
      shared_level_ = k;
    } else {
      owned_mem_.emplace_back(name + ".L" + std::to_string(k), depth,
                              kMinWordBits, cfg_.read_cycles);
    }
  }
  rebind(lists, prio, shared_level);

  pool_.resize(cfg_.strides.size());
  free_ids_.resize(cfg_.strides.size());
  // Root node: always live, entries all empty.
  SwNode root;
  root.entries.resize(usize{1} << cfg_.strides[0]);
  root.live = true;
  pool_[0].push_back(std::move(root));
}

void MultiBitTrie::rebind(LabelListStore& lists, const Priority* prio,
                          hw::Memory* shared_level) {
  lists_ = &lists;
  prio_ = prio;
  mem_.clear();
  for (usize k = 0, owned = 0; k < cfg_.strides.size(); ++k) {
    mem_.push_back(k == shared_level_ ? shared_level : &owned_mem_[owned++]);
  }
}

unsigned MultiBitTrie::level_word_bits(usize level) const {
  return mem_[level]->word_bits();
}

usize MultiBitTrie::anchor_level(u8 prefix_len) const {
  for (usize k = 0; k < cum_.size(); ++k) {
    if (prefix_len <= cum_[k]) return k;
  }
  throw InternalError("MultiBitTrie: prefix longer than segment");
}

u32 MultiBitTrie::entry_index(u16 key, usize level) const {
  const unsigned shift = 16 - cum_[level];
  return static_cast<u32>((key >> shift) & mask_low(cfg_.strides[level]));
}

MultiBitTrie::Span MultiBitTrie::covered_span(ruleset::SegmentPrefix p,
                                              usize level) const {
  const unsigned prev = level == 0 ? 0 : cum_[level - 1];
  const unsigned span_bits = cum_[level] - std::max<unsigned>(p.length, prev);
  const u32 base = entry_index(p.value, level);
  // Host bits of p.value are zero, so base already has zeros in the
  // expanded positions.
  return Span{base, base + (u32{1} << span_bits) - 1};
}

i64 MultiBitTrie::alloc_node(usize level, i64 parent, u32 parent_entry,
                             hw::CommandLog& log) {
  i64 id;
  if (!free_ids_[level].empty()) {
    id = free_ids_[level].back();
    free_ids_[level].pop_back();
  } else {
    if (pool_[level].size() >= cfg_.level_capacity[level]) {
      throw CapacityError("MultiBitTrie '" + mem_[level]->name() +
                          "': node pool exhausted at level " +
                          std::to_string(level));
    }
    id = static_cast<i64>(pool_[level].size());
    pool_[level].emplace_back();
  }
  // Leaf-push: every new entry points at the parent entry's list. The
  // store already holds it, so the node takes all its references in one
  // step and uploads nothing.
  const ListRef inherited =
      pool_[level - 1][static_cast<usize>(parent)].entries[parent_entry].ref;
  SwNode& n = pool_[level][static_cast<usize>(id)];
  n.entries.assign(usize{1} << cfg_.strides[level], SwEntry{-1, inherited});
  n.parent = parent;
  n.parent_entry = parent_entry;
  n.live = true;
  lists_->retain(inherited, static_cast<u32>(n.entries.size()));
  for (u32 e = 0; e < n.entries.size(); ++e) {
    write_entry(level, id, e, log);
  }
  return id;
}

void MultiBitTrie::free_node(usize level, i64 id) {
  SwNode& n = pool_[level][static_cast<usize>(id)];
  // One counted release per run of equal pointers: a node that only ever
  // inherited is a single run.
  for (usize e = 0; e < n.entries.size();) {
    const ListRef ref = n.entries[e].ref;
    u32 run = 1;
    while (e + run < n.entries.size() && n.entries[e + run].ref == ref) {
      ++run;
    }
    lists_->release(ref, run);
    e += run;
  }
  // Keep the entry array's capacity for the node's next use.
  n.entries.clear();
  n.anchored.clear();
  n.children = 0;
  n.live = false;
  free_ids_[level].push_back(static_cast<u32>(id));
}

void MultiBitTrie::write_entry(usize level, i64 node, u32 entry,
                               hw::CommandLog& log) {
  const SwNode& n = pool_[level][static_cast<usize>(node)];
  const SwEntry& e = n.entries[entry];
  const u32 addr =
      static_cast<u32>(node) * (u32{1} << cfg_.strides[level]) + entry;
  log.memory_write(*mem_[level], addr,
                   encode_entry(e.child >= 0,
                                e.child >= 0 ? static_cast<u64>(e.child) : 0,
                                e.ref.addr));
}

i64 MultiBitTrie::walk_to_anchor(ruleset::SegmentPrefix p, bool create,
                                 hw::CommandLog& log) {
  const usize target = anchor_level(p.length);
  i64 node = 0;
  for (usize k = 0; k < target; ++k) {
    const u32 idx = entry_index(p.value, k);
    SwEntry& e = pool_[k][static_cast<usize>(node)].entries[idx];
    if (e.child < 0) {
      if (!create) {
        throw InternalError("MultiBitTrie: path missing for known prefix");
      }
      try {
        e.child = alloc_node(k + 1, node, idx, log);
        ++pool_[k][static_cast<usize>(node)].children;
      } catch (const CapacityError&) {
        // Free the interior nodes this walk created before rethrowing:
        // they hold no prefix, so nothing else would ever reclaim them.
        prune_upwards(k, node, log);
        throw;
      }
      write_entry(k, node, idx, log);
      // Re-fetch: alloc_node may have grown the pool vector.
    }
    node = pool_[k][static_cast<usize>(node)].entries[idx].child;
  }
  return node;
}

std::span<const Label> MultiBitTrie::inherited_of(usize level,
                                                  i64 node) const {
  const SwNode& n = pool_[level][static_cast<usize>(node)];
  if (n.parent < 0) {
    return {};
  }
  return lists_->content(
      pool_[level - 1][static_cast<usize>(n.parent)].entries[n.parent_entry]
          .ref);
}

std::vector<Label> MultiBitTrie::compose_list(
    const SwNode& node, usize level, u32 entry,
    std::span<const Label> inherited) const {
  std::vector<Label> out(inherited.begin(), inherited.end());
  for (const auto& [q, l] : node.anchored) {
    const Span s = covered_span(q, level);
    if (entry >= s.lo && entry <= s.hi) {
      out.push_back(l);
    }
  }
  std::sort(out.begin(), out.end(), [&](Label a, Label b) {
    const Priority pa = prio_[a.value], pb = prio_[b.value];
    return pa != pb ? pa < pb : a.value < b.value;
  });
  return out;
}

void MultiBitTrie::recompute_entry(usize level, i64 node, u32 entry,
                                   std::span<const Label> inherited,
                                   hw::CommandLog& log, bool force) {
  SwNode& n = pool_[level][static_cast<usize>(node)];
  const std::vector<Label> fresh = compose_list(n, level, entry, inherited);
  SwEntry& e = n.entries[entry];
  const bool changed = !std::ranges::equal(fresh, lists_->content(e.ref));
  if (!changed && !force) {
    return;  // nothing below can have changed either (same inherited base)
  }
  if (changed) {
    const ListRef new_ref =
        fresh.empty() ? ListRef{} : lists_->acquire(fresh, log);
    lists_->release(e.ref);
    e.ref = new_ref;
    write_entry(level, node, entry, log);
  }
  if (e.child >= 0) {
    // The entry holds a reference to its list, so the span stays valid
    // while the children are recomputed.
    const i64 child = e.child;
    const std::span<const Label> list = lists_->content(e.ref);
    const usize child_entries = usize{1} << cfg_.strides[level + 1];
    for (u32 ce = 0; ce < child_entries; ++ce) {
      recompute_entry(level + 1, child, ce, list, log, force);
    }
  }
}

void MultiBitTrie::recompute_span(ruleset::SegmentPrefix p,
                                  hw::CommandLog& log, bool force) {
  const auto it = prefix_anchor_.find(p);
  if (it == prefix_anchor_.end()) {
    throw InternalError("MultiBitTrie: recompute of unknown prefix");
  }
  const auto [level, node] = it->second;
  const Span s = covered_span(p, level);
  const std::span<const Label> inherited = inherited_of(level, node);
  for (u32 e = s.lo; e <= s.hi; ++e) {
    recompute_entry(level, node, e, inherited, log, force);
  }
}

void MultiBitTrie::insert(ruleset::SegmentPrefix p, Label label,
                          hw::CommandLog& log) {
  if (prefix_anchor_.contains(p)) {
    throw InternalError("MultiBitTrie: duplicate prefix insert");
  }
  const usize level = anchor_level(p.length);
  const i64 node = walk_to_anchor(p, /*create=*/true, log);
  SwNode& anchor = pool_[level][static_cast<usize>(node)];
  anchor.anchored.emplace(p, label);
  prefix_anchor_.emplace(p, std::make_pair(level, node));
  try {
    recompute_span(p, log, /*force=*/false);
  } catch (const CapacityError&) {
    // The label-list store filled part-way through the leaf push. Without
    // the prefix, a second pass gives every entry the first pass reached
    // its old list back (lists the store held before this call) and
    // stops at the entries it never reached; then the nodes the walk
    // created go.
    anchor.anchored.erase(p);
    recompute_span(p, log, /*force=*/false);
    prefix_anchor_.erase(p);
    prune_upwards(level, node, log);
    throw;
  }
}

void MultiBitTrie::remove(ruleset::SegmentPrefix p, hw::CommandLog& log) {
  const auto it = prefix_anchor_.find(p);
  if (it == prefix_anchor_.end()) {
    throw InternalError("MultiBitTrie: remove of unknown prefix");
  }
  const auto [level, node] = it->second;
  SwNode& n = pool_[level][static_cast<usize>(node)];
  n.anchored.erase(p);
  // Recompute while the anchor entry still exists, then drop bookkeeping.
  const Span s = covered_span(p, level);
  const std::span<const Label> inherited = inherited_of(level, node);
  for (u32 e = s.lo; e <= s.hi; ++e) {
    recompute_entry(level, node, e, inherited, log, /*force=*/false);
  }
  prefix_anchor_.erase(it);
  prune_upwards(level, node, log);
}

void MultiBitTrie::refresh(ruleset::SegmentPrefix p, hw::CommandLog& log) {
  // A priority change can reorder lists anywhere under the anchor span
  // even when intermediate lists look unchanged -> forced descent.
  recompute_span(p, log, /*force=*/true);
}

void MultiBitTrie::prune_upwards(usize level, i64 node,
                                 hw::CommandLog& log) {
  while (level > 0) {
    SwNode& n = pool_[level][static_cast<usize>(node)];
    assert(n.children ==
           static_cast<u32>(std::ranges::count_if(
               n.entries, [](const SwEntry& e) { return e.child >= 0; })));
    if (!n.anchored.empty() || n.children != 0) {
      return;
    }
    const i64 parent = n.parent;
    const u32 parent_entry = n.parent_entry;
    free_node(level, node);
    SwNode& pn = pool_[level - 1][static_cast<usize>(parent)];
    pn.entries[parent_entry].child = -1;
    --pn.children;
    write_entry(level - 1, parent, parent_entry, log);
    --level;
    node = parent;
  }
}

void MultiBitTrie::clear(hw::CommandLog& log) {
  // Free everything below the root, then reset the root entries.
  for (usize k = 1; k < pool_.size(); ++k) {
    for (usize id = 0; id < pool_[k].size(); ++id) {
      if (pool_[k][id].live) {
        free_node(k, static_cast<i64>(id));
      }
    }
    pool_[k].clear();
    free_ids_[k].clear();
  }
  SwNode& root = pool_[0][0];
  root.anchored.clear();
  root.children = 0;
  for (u32 e = 0; e < root.entries.size(); ++e) {
    lists_->release(root.entries[e].ref);
    root.entries[e] = SwEntry{};
    write_entry(0, 0, e, log);
  }
  prefix_anchor_.clear();
}

ListRef MultiBitTrie::lookup(u16 key, hw::CycleRecorder* rec) const {
  u64 node = 0;
  u64 result = ListRef::kNull;
  for (usize k = 0; k < cfg_.strides.size(); ++k) {
    const u32 addr = static_cast<u32>(node) * (u32{1} << cfg_.strides[k]) +
                     entry_index(key, k);
    const hw::Word w = mem_[k]->read(addr, rec);
    hw::WordUnpacker u(w);
    const u64 child_valid = u.pull(1);
    const u64 child = u.pull(kChildBits);
    const u64 list_addr = u.pull(kAddrBits);
    if (list_addr != ListRef::kNull) {
      result = list_addr;
    }
    if (child_valid == 0) {
      break;
    }
    node = child;
  }
  return ListRef{static_cast<u32>(result)};
}

u64 MultiBitTrie::live_node_bits() const {
  u64 bits = 0;
  for (usize k = 0; k < pool_.size(); ++k) {
    const u64 live = static_cast<u64>(node_count(k));
    bits += live * (u64{1} << cfg_.strides[k]) * level_word_bits(k);
  }
  return bits;
}

u64 MultiBitTrie::capacity_bits() const {
  u64 bits = 0;
  for (const hw::Memory* m : mem_) {
    bits += m->capacity_bits();
  }
  return bits;
}

usize MultiBitTrie::node_count(usize level) const {
  usize live = 0;
  for (const SwNode& n : pool_[level]) {
    if (n.live) ++live;
  }
  return live;
}

}  // namespace pclass::alg
