/// \file label_table.hpp
/// The controller-side label tables of the update methodology (§IV.A,
/// Fig. 4): each dimension keeps a table of its *unique* field values,
/// each tagged with a small label and a reference counter.
///
///   "when one or more new rules must be inserted in the system, the
///    Controller searches the unique labels for each field in lookup
///    tables (Label Tables). The label tables also contain a counter for
///    each label to support fast incremental update. When a label is not
///    found in the table ... a new label is created, the counter is
///    [set to] 1 and the new rule information is inserted. However, if
///    the label is found ... only the incremental value of the counter is
///    required. ... only when the counter is zero, the label is deleted."
///
/// The table also tracks the best (minimum) rule priority per label,
/// because IP/protocol label lists are kept in priority order (§III.C.1).
///
/// Structures and their cost (n = rules using the label):
///  - The index is an open-addressed, linear-probing hash table from the
///    value packed into 32 bits (label_key) to its label, at most half
///    full; a find is one multiply and a probe or two, an erase shifts
///    the probe run back so no tombstones build up.
///  - Per-label state lives in a vector indexed by the label value, so a
///    label's entry is one array read once the index has found it.
///  - Each label keeps its rules' priorities, one per rule, in a
///    PriorityBag: a sorted run with slack in front. The best priority
///    is its first element, O(1). Inserting or erasing at either end is
///    O(1) amortized, which covers both a ruleset installed in priority
///    order (every insert at the back) and churn rules at priority 0
///    ahead of a wildcard held by thousands of rules (every insert and
///    erase at the front); elsewhere the shorter side of the run
///    shifts, O(min(k, n - k)) at position k.
///  - acquire and release return the label's new best priority, so an
///    update takes one index lookup per field.
///
/// for_each must visit values in ascending order, as the ordered map
/// this table replaced did: set_ip_algorithm rebuilds the IP engines in
/// that order, and their device writes depend on it. The index keeps no
/// order, so for_each collects the live (key, label) pairs and sorts
/// them, O(L log L) over the L live labels; label_key is order-preserving,
/// so sorting keys sorts values. Only an algorithm switch and tests call
/// it, never the per-rule update path.
#pragma once

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "ruleset/rule.hpp"

namespace pclass::alg {

/// A field value packed into the label index's 32-bit key. Each packing
/// is injective and orders keys as the values' operator<=> orders them.
[[nodiscard]] constexpr u32 label_key(const ruleset::SegmentPrefix& v) {
  return u32{v.value} << 8 | v.length;
}
[[nodiscard]] constexpr u32 label_key(const ruleset::PortRange& v) {
  return u32{v.lo} << 16 | v.hi;
}
[[nodiscard]] constexpr u32 label_key(const ruleset::ProtoMatch& v) {
  return u32{v.value} << 1 | (v.wildcard ? 1u : 0u);
}

/// Outcome of an acquire (rule-field insert).
struct AcquireResult {
  Label label;
  bool created = false;  ///< true -> the hardware structure must learn it
  Priority best = kNoPriority;  ///< the label's best priority after it
};

/// Outcome of a release (rule-field delete).
struct ReleaseResult {
  Label label;
  bool freed = false;  ///< true -> the hardware structure must forget it
  /// The label's best priority after it; kNoPriority when freed.
  Priority best = kNoPriority;
};

/// A multiset of priorities kept sorted ascending in buf_[head_, end).
/// The slack before head_ takes inserts ahead of the first element
/// without shifting the rest. It is opened as long as the run (so
/// amortized O(1)) when such an insert finds none, and cut back to that
/// length when the vector would otherwise grow while over two thirds of
/// it is slack.
class PriorityBag {
 public:
  [[nodiscard]] u32 size() const {
    return static_cast<u32>(buf_.size() - head_);
  }
  [[nodiscard]] bool empty() const { return buf_.size() == head_; }
  /// The minimum; undefined when empty.
  [[nodiscard]] Priority best() const { return buf_[head_]; }

  void insert(Priority p) {
    if (empty()) {
      buf_.clear();
      head_ = 0;
      buf_.push_back(p);
      return;
    }
    if (p <= buf_[head_]) {
      if (head_ == 0) open_front();
      buf_[--head_] = p;
      return;
    }
    compact_if_full();
    const auto first = buf_.begin() + head_;
    const auto pos = std::upper_bound(first, buf_.end(), p);
    if (head_ > 0 && pos - first < buf_.end() - pos) {
      std::move(first, pos, first - 1);
      *(pos - 1) = p;
      --head_;
    } else {
      buf_.insert(pos, p);
    }
  }

  /// Removes one copy of \p p; false (and no change) if none is held.
  bool erase(Priority p) {
    if (empty()) return false;
    if (p == buf_[head_]) {
      ++head_;
      return true;
    }
    const auto first = buf_.begin() + head_;
    const auto pos = std::lower_bound(first, buf_.end(), p);
    if (pos == buf_.end() || *pos != p) return false;
    if (pos - first < buf_.end() - pos) {
      std::move_backward(first, pos, pos + 1);
      ++head_;
    } else {
      buf_.erase(pos);
    }
    return true;
  }

 private:
  /// Re-places the run behind a slack as long as itself.
  void open_front() {
    const usize slack = std::max<usize>(size(), 4);
    buf_.insert(buf_.begin(), slack, Priority{0});
    head_ = static_cast<u32>(slack);
  }

  /// Instead of growing a full vector that is over two thirds slack,
  /// re-places the run behind a slack as long as itself. Front erases
  /// followed by back inserts would otherwise grow the slack unbounded.
  void compact_if_full() {
    const u32 n = size();
    if (buf_.size() == buf_.capacity() && head_ > 2 * n) {
      std::move(buf_.begin() + head_, buf_.end(), buf_.begin() + n);
      buf_.resize(2 * usize{n});
      head_ = n;
    }
  }

  std::vector<Priority> buf_;
  u32 head_ = 0;
};

/// Ref-counted label table for one dimension, keyed by the dimension's
/// field-value type (SegmentPrefix, PortRange or ProtoMatch, each with a
/// label_key packing).
template <typename ValueT>
class LabelTable {
 public:
  /// \param dim  the dimension, which fixes the label width and thus the
  ///             maximum number of distinct live labels (2^width).
  explicit LabelTable(Dimension dim)
      : dim_(dim), capacity_(usize{1} << label_bits(dim)) {}

  [[nodiscard]] Dimension dimension() const { return dim_; }
  [[nodiscard]] usize capacity() const { return capacity_; }
  [[nodiscard]] usize size() const { return size_; }

  /// Fig. 4 insert path: find-or-create the label for \p value and count
  /// one more rule using it (with rule priority \p prio, tracked so lists
  /// can stay priority-ordered).
  /// \throws CapacityError when a new label would exceed the label width.
  AcquireResult acquire(const ValueT& value, Priority prio) {
    const u32 key = label_key(value);
    usize i = find_slot(key);
    if (slots_[i].label != Label::kInvalid) {
      PriorityBag& prios = entries_[slots_[i].label].priorities;
      prios.insert(prio);
      return {Label{slots_[i].label}, false, prios.best()};
    }
    if (size_ >= capacity_) {
      throw CapacityError(std::string("LabelTable[") + to_string(dim_) +
                          "]: out of labels (capacity " +
                          std::to_string(capacity_) + ")");
    }
    if (2 * (size_ + 1) > slots_.size()) {
      grow();
      i = find_slot(key);
    }
    const Label label = allocate();
    if (label.value == entries_.size()) entries_.emplace_back();
    Entry& e = entries_[label.value];
    e.value = value;
    e.priorities.insert(prio);
    slots_[i] = Slot{key, label.value};
    ++size_;
    return {label, true, prio};
  }

  /// Fig. 4 delete path: count one less rule using \p value; the label is
  /// freed when its counter reaches zero.
  /// \throws InternalError if the value (or priority) is not present —
  /// that would mean the controller's shadow state diverged.
  ReleaseResult release(const ValueT& value, Priority prio) {
    const usize i = find_slot(label_key(value));
    if (slots_[i].label == Label::kInvalid) {
      throw InternalError(std::string("LabelTable[") + to_string(dim_) +
                          "]: releasing unknown value");
    }
    const Label label{slots_[i].label};
    PriorityBag& prios = entries_[label.value].priorities;
    if (!prios.erase(prio)) {
      throw InternalError(std::string("LabelTable[") + to_string(dim_) +
                          "]: refcount/priority underflow");
    }
    if (prios.empty()) {
      free_list_.push_back(label);
      erase_slot(i);
      --size_;
      return {label, true, kNoPriority};
    }
    return {label, false, prios.best()};
  }

  [[nodiscard]] std::optional<Label> find(const ValueT& value) const {
    const Slot& s = slots_[find_slot(label_key(value))];
    if (s.label == Label::kInvalid) return std::nullopt;
    return Label{s.label};
  }

  /// Rules using \p value (the label's counter).
  [[nodiscard]] u32 refcount(const ValueT& value) const {
    const Entry* e = entry(value);
    return e == nullptr ? 0 : e->priorities.size();
  }

  /// Best (minimum) priority of any live rule using \p value.
  [[nodiscard]] Priority best_priority(const ValueT& value) const {
    const Entry* e = entry(value);
    return e == nullptr ? kNoPriority : e->priorities.best();
  }

  /// Iteration over (value, label, best priority) in ascending value
  /// order (see the file comment for why it sorts).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    std::vector<std::pair<u32, u16>> live;
    live.reserve(size_);
    for (const Slot& s : slots_) {
      if (s.label != Label::kInvalid) live.emplace_back(s.key, s.label);
    }
    std::sort(live.begin(), live.end());
    for (const auto& [key, label] : live) {
      const Entry& e = entries_[label];
      fn(e.value, Label{label}, e.priorities.best());
    }
  }

 private:
  struct Entry {
    ValueT value{};
    /// Live rule priorities using this value, one per rule: its size is
    /// the label's counter (rules may share a priority, and deletion
    /// needs exact bookkeeping).
    PriorityBag priorities;
  };

  /// One index slot; label == Label::kInvalid marks it empty.
  struct Slot {
    u32 key = 0;
    u16 label = Label::kInvalid;
  };

  [[nodiscard]] usize home(u32 key) const {
    return static_cast<u32>(key * 0x9E3779B1u) >> shift_;
  }

  /// The slot holding \p key, or the empty slot ending its probe run.
  [[nodiscard]] usize find_slot(u32 key) const {
    const usize mask = slots_.size() - 1;
    usize i = home(key);
    while (slots_[i].label != Label::kInvalid && slots_[i].key != key) {
      i = (i + 1) & mask;
    }
    return i;
  }

  [[nodiscard]] const Entry* entry(const ValueT& value) const {
    const Slot& s = slots_[find_slot(label_key(value))];
    return s.label == Label::kInvalid ? nullptr : &entries_[s.label];
  }

  /// Empties slot \p i, moving back each later slot of the probe run
  /// whose home lies cyclically at or before the hole.
  void erase_slot(usize i) {
    const usize mask = slots_.size() - 1;
    for (usize j = (i + 1) & mask; slots_[j].label != Label::kInvalid;
         j = (j + 1) & mask) {
      if (((j - home(slots_[j].key)) & mask) >= ((j - i) & mask)) {
        slots_[i] = slots_[j];
        i = j;
      }
    }
    slots_[i] = Slot{};
  }

  void grow() {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    --shift_;
    for (const Slot& s : old) {
      if (s.label != Label::kInvalid) slots_[find_slot(s.key)] = s;
    }
  }

  Label allocate() {
    if (!free_list_.empty()) {
      const Label l = free_list_.back();
      free_list_.pop_back();
      return l;
    }
    return Label{next_++};
  }

  static constexpr usize kInitialSlots = 8;

  Dimension dim_;
  usize capacity_;
  usize size_ = 0;
  std::vector<Slot> slots_ = std::vector<Slot>(kInitialSlots);
  unsigned shift_ = 32 - 3;  ///< 32 - log2(slots_.size())
  std::vector<Entry> entries_;  ///< by label value; free labels are empty
  std::vector<Label> free_list_;
  u16 next_ = 0;
};

}  // namespace pclass::alg
