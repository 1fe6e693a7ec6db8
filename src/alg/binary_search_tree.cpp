#include "alg/binary_search_tree.hpp"

#include <algorithm>
#include <set>

namespace pclass::alg {

namespace {

constexpr unsigned kStartBits = 16;
constexpr unsigned kAddrBits = 16;
constexpr unsigned kMinWordBits = 1 + kStartBits + kAddrBits;

// Node word layout (LSB first): valid(1) start(16) list_addr(16).
hw::Word encode_node(bool valid, u16 start, u32 list_addr) {
  hw::WordPacker p;
  p.push(valid ? 1 : 0, 1);
  p.push(start, kStartBits);
  p.push(list_addr, kAddrBits);
  return p.word();
}

}  // namespace

BinarySearchTree::BinarySearchTree(const std::string& name, BstConfig cfg,
                                   LabelListStore& lists,
                                   std::function<Priority(Label)> prio_of,
                                   hw::Memory* shared_memory)
    : cfg_(cfg), lists_(lists), prio_of_(std::move(prio_of)) {
  if (cfg_.max_nodes == 0) {
    throw ConfigError("BinarySearchTree: max_nodes must be > 0");
  }
  if (lists_.memory().depth() > (u32{1} << kAddrBits)) {
    throw ConfigError("BinarySearchTree: list store too deep for address "
                      "field");
  }
  if (!prio_of_) {
    throw ConfigError("BinarySearchTree: priority callback required");
  }
  const unsigned word_bits =
      std::max(kMinWordBits, cfg_.word_bits_override == 0
                                 ? kMinWordBits
                                 : cfg_.word_bits_override);
  if (shared_memory != nullptr) {
    if (shared_memory->depth() < cfg_.max_nodes ||
        shared_memory->word_bits() < word_bits) {
      throw ConfigError("BinarySearchTree: shared memory too small");
    }
    mem_ = shared_memory;
  } else {
    owned_mem_ = std::make_unique<hw::Memory>(name + ".bst", cfg_.max_nodes,
                                              word_bits, cfg_.read_cycles);
    mem_ = owned_mem_.get();
  }
  nodes_.resize(cfg_.max_nodes);
}

void BinarySearchTree::write_node(u32 idx, hw::CommandLog& log) {
  const SwNode& n = nodes_[idx];
  log.memory_write(*mem_, idx, encode_node(n.valid, n.start, n.ref.addr));
}

void BinarySearchTree::rebuild(hw::CommandLog& log) {
  // 1. Elementary intervals of the prefix set, with covering-label lists
  //    maintained by a sweep (add at lo, drop at hi+1) so the cost is
  //    O((P + I) log P) rather than O(P * I).
  struct Event {
    u32 point;
    bool add;
    Priority prio;
    Label label;
  };
  std::vector<Event> events;
  events.reserve(prefixes_.size() * 2 + 1);
  std::vector<u32> points = {0};
  for (const auto& [p, label] : prefixes_) {
    const u32 lo = p.value;
    const u32 hi =
        p.value | static_cast<u32>(mask_low(16u - p.length) & 0xFFFFu);
    const Priority prio = prio_of_(label);
    events.push_back({lo, true, prio, label});
    points.push_back(lo);
    if (hi + 1 <= 0xFFFFu) {
      events.push_back({hi + 1, false, prio, label});
      points.push_back(hi + 1);
    }
  }
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.point < b.point; });

  struct Interval {
    u16 start;
    std::vector<Label> list;
  };
  std::vector<Interval> intervals;
  if (!prefixes_.empty()) {
    intervals.reserve(points.size());
    std::set<std::pair<Priority, u16>> active;  // (priority, label value)
    usize ev = 0;
    for (u32 pt : points) {
      for (; ev < events.size() && events[ev].point == pt; ++ev) {
        const auto key = std::make_pair(events[ev].prio,
                                        events[ev].label.value);
        if (events[ev].add) {
          active.insert(key);
        } else {
          active.erase(key);
        }
      }
      std::vector<Label> list;
      list.reserve(active.size());
      for (const auto& [prio, value] : active) {
        list.push_back(Label{value});
      }
      intervals.push_back({static_cast<u16>(pt), std::move(list)});
    }
  }

  // 2. Sorted-array placement: the balanced tree is implicit (midpoint
  //    binary search over interval starts), so n intervals occupy exactly
  //    n words — the memory-efficiency that motivates the BST option.
  if (intervals.size() > nodes_.size()) {
    throw CapacityError("BinarySearchTree '" + mem_->name() + "': " +
                        std::to_string(intervals.size()) +
                        " intervals exceed capacity " +
                        std::to_string(nodes_.size()));
  }
  std::vector<SwNode> fresh(nodes_.size());
  for (usize i = 0; i < intervals.size(); ++i) {
    fresh[i].valid = true;
    fresh[i].start = intervals[i].start;
    fresh[i].list = std::move(intervals[i].list);
  }

  // 3. Diff against the current shadow; upload only changed words.
  live_nodes_ = 0;
  for (u32 i = 0; i < nodes_.size(); ++i) {
    SwNode& old = nodes_[i];
    SwNode& nw = fresh[i];
    if (nw.valid) ++live_nodes_;
    const bool same = old.valid == nw.valid && old.start == nw.start &&
                      old.list == nw.list;
    if (same) {
      continue;
    }
    const ListRef new_ref = (nw.valid && !nw.list.empty())
                                ? lists_.acquire(nw.list, log)
                                : ListRef{};
    lists_.release(old.ref);
    old.valid = nw.valid;
    old.start = nw.start;
    old.list = std::move(nw.list);
    old.ref = new_ref;
    write_node(i, log);
  }
}

void BinarySearchTree::insert(ruleset::SegmentPrefix p, Label label,
                              hw::CommandLog& log) {
  if (!prefixes_.emplace(p, label).second) {
    throw InternalError("BinarySearchTree: duplicate prefix insert");
  }
  rebuild(log);
}

void BinarySearchTree::insert_bulk(
    const std::vector<std::pair<ruleset::SegmentPrefix, Label>>& batch,
    hw::CommandLog& log) {
  for (const auto& [p, label] : batch) {
    if (!prefixes_.emplace(p, label).second) {
      throw InternalError("BinarySearchTree: duplicate prefix in bulk "
                          "insert");
    }
  }
  rebuild(log);
}

void BinarySearchTree::remove(ruleset::SegmentPrefix p,
                              hw::CommandLog& log) {
  if (prefixes_.erase(p) == 0) {
    throw InternalError("BinarySearchTree: remove of unknown prefix");
  }
  rebuild(log);
}

void BinarySearchTree::refresh(ruleset::SegmentPrefix /*p*/,
                               hw::CommandLog& log) {
  rebuild(log);
}

void BinarySearchTree::clear(hw::CommandLog& log) {
  prefixes_.clear();
  rebuild(log);
}

ListRef BinarySearchTree::lookup(u16 key, hw::CycleRecorder* rec) const {
  // Predecessor binary search over the sorted interval starts. Every
  // probed midpoint is one memory read — ceil(log2 n) accesses, the
  // paper's "16 per packet" worst case for a full segment.
  if (live_nodes_ == 0) {
    return ListRef{};
  }
  i64 lo = 0;
  i64 hi = i64{live_nodes_} - 1;
  u32 best = ListRef::kNull;
  while (lo <= hi) {
    const i64 mid = lo + (hi - lo) / 2;
    const hw::Word w = mem_->read(static_cast<u32>(mid), rec);
    hw::WordUnpacker u(w);
    const u64 valid = u.pull(1);
    const u64 start = u.pull(kStartBits);
    const u64 list_addr = u.pull(kAddrBits);
    if (valid == 0) {
      throw InternalError("BinarySearchTree: invalid node inside live "
                          "range");
    }
    if (key < start) {
      hi = mid - 1;
    } else {
      best = static_cast<u32>(list_addr);  // predecessor so far
      lo = mid + 1;
    }
  }
  return ListRef{best};
}

unsigned BinarySearchTree::depth() const {
  return ceil_log2(u64{live_nodes_} + 1);
}

}  // namespace pclass::alg
