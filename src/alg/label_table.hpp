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
#pragma once

#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace pclass::alg {

/// Outcome of an acquire (rule-field insert).
struct AcquireResult {
  Label label;
  bool created = false;  ///< true -> the hardware structure must learn it
};

/// Outcome of a release (rule-field delete).
struct ReleaseResult {
  Label label;
  bool freed = false;  ///< true -> the hardware structure must forget it
};

/// Ref-counted label table for one dimension, keyed by the dimension's
/// field-value type (SegmentPrefix, PortRange or ProtoMatch — any
/// totally-ordered regular type).
template <typename ValueT>
class LabelTable {
 public:
  /// \param dim  the dimension, which fixes the label width and thus the
  ///             maximum number of distinct live labels (2^width).
  explicit LabelTable(Dimension dim)
      : dim_(dim), capacity_(usize{1} << label_bits(dim)) {}

  [[nodiscard]] Dimension dimension() const { return dim_; }
  [[nodiscard]] usize capacity() const { return capacity_; }
  [[nodiscard]] usize size() const { return entries_.size(); }

  /// Fig. 4 insert path: find-or-create the label for \p value and count
  /// one more rule using it (with rule priority \p prio, tracked so lists
  /// can stay priority-ordered).
  /// \throws CapacityError when a new label would exceed the label width.
  AcquireResult acquire(const ValueT& value, Priority prio) {
    auto it = entries_.find(value);
    if (it != entries_.end()) {
      Entry& e = it->second;
      e.priorities.insert(prio);
      return {e.label, false};
    }
    if (entries_.size() >= capacity_) {
      throw CapacityError(std::string("LabelTable[") + to_string(dim_) +
                          "]: out of labels (capacity " +
                          std::to_string(capacity_) + ")");
    }
    Entry e;
    e.label = allocate();
    e.priorities.insert(prio);
    const Label out = e.label;
    entries_.emplace(value, std::move(e));
    return {out, true};
  }

  /// Fig. 4 delete path: count one less rule using \p value; the label is
  /// freed when its counter reaches zero.
  /// \throws InternalError if the value (or priority) is not present —
  /// that would mean the controller's shadow state diverged.
  ReleaseResult release(const ValueT& value, Priority prio) {
    auto it = entries_.find(value);
    if (it == entries_.end()) {
      throw InternalError(std::string("LabelTable[") + to_string(dim_) +
                          "]: releasing unknown value");
    }
    Entry& e = it->second;
    auto pit = e.priorities.find(prio);
    if (pit == e.priorities.end()) {
      throw InternalError(std::string("LabelTable[") + to_string(dim_) +
                          "]: refcount/priority underflow");
    }
    e.priorities.erase(pit);
    const Label label = e.label;
    if (e.priorities.empty()) {
      free_list_.push_back(label);
      entries_.erase(it);
      return {label, true};
    }
    return {label, false};
  }

  [[nodiscard]] std::optional<Label> find(const ValueT& value) const {
    auto it = entries_.find(value);
    if (it == entries_.end()) return std::nullopt;
    return it->second.label;
  }

  /// Rules using \p value (the label's counter).
  [[nodiscard]] u32 refcount(const ValueT& value) const {
    auto it = entries_.find(value);
    return it == entries_.end()
               ? 0
               : static_cast<u32>(it->second.priorities.size());
  }

  /// Best (minimum) priority of any live rule using \p value.
  [[nodiscard]] Priority best_priority(const ValueT& value) const {
    auto it = entries_.find(value);
    if (it == entries_.end()) {
      return kNoPriority;
    }
    return *it->second.priorities.begin();
  }

  /// Deterministic iteration over (value, label, best priority).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [value, e] : entries_) {
      fn(value, e.label, *e.priorities.begin());
    }
  }

 private:
  struct Entry {
    Label label;
    /// Live rule priorities using this value, one per rule: its size is
    /// the label's counter (multiset: rules may share a priority only
    /// transiently, but deletion needs exact bookkeeping).
    std::multiset<Priority> priorities;
  };

  Label allocate() {
    if (!free_list_.empty()) {
      const Label l = free_list_.back();
      free_list_.pop_back();
      return l;
    }
    return Label{next_++};
  }

  Dimension dim_;
  usize capacity_;
  std::map<ValueT, Entry> entries_;
  std::vector<Label> free_list_;
  u16 next_ = 0;
};

}  // namespace pclass::alg
