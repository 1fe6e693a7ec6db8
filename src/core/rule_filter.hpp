/// \file rule_filter.hpp
/// The Rule Filter memory block (§III.D, §IV.A): rules are stored at the
/// address produced by the hardware hash of their 68-bit merged label key
/// ("The final address to store each rule in the Rule Filter block is
/// performed using a hash function implemented in hardware").
///
/// Collisions are resolved by linear probing; the stored key is compared
/// on lookup (the hardware's match confirm), so a probe either returns
/// the unique rule owning that label combination or reports a miss.
/// Deletions leave tombstones to keep probe chains intact; the
/// controller can rebuild the table when tombstones accumulate.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/key68.hpp"
#include "common/types.hpp"
#include "hwsim/memory.hpp"
#include "hwsim/update_bus.hpp"

namespace pclass::core {

/// What the filter returns on a hit.
struct RuleEntry {
  RuleId rule;
  Priority priority = kNoPriority;
  u32 action = 0;

  /// True iff rule id, priority and action all fit the Rule Filter
  /// word's 16-bit fields.
  [[nodiscard]] constexpr bool fits_word() const {
    return rule.value <= 0xFFFF && priority <= 0xFFFF && action <= 0xFFFF;
  }

  friend constexpr auto operator<=>(const RuleEntry&,
                                    const RuleEntry&) = default;
};

/// Combination-probe memo for the phase-3/4 combiner: a small 2-way
/// set-associative map from a 68-bit label combination to its cached
/// verdict. Models a tiny combination cache in front of the Rule
/// Filter: repeated label combinations (fw-like traffic) resolve in one
/// cycle instead of re-walking hash + probe chain.
///
/// Geometry: each set index pairs two tagged ways with a one-bit LRU,
/// so two hot cross-batch combinations that collide on the same set
/// coexist instead of evicting each other on every alternation — the
/// conflict-miss pathology of a direct map (cf. RVH: hash-structure
/// conflict behavior dominates online classification tail latency). A
/// replacement that overwrites a *live* entry of a different key is
/// counted in conflict_evictions().
///
/// Lifetime: the memo is *persistent* — entries are tagged with the
/// device state they were cached against (a (device id, update epoch)
/// binding, see bind()) and survive batch boundaries, so flow locality
/// spanning batches keeps compounding hits. They are invalidated, in
/// O(1), exactly when that binding changes: the scratch is pointed at a
/// different classifier (a published RuleProgram snapshot swap rotates
/// the replica the worker classifies against) or the same classifier
/// absorbed an update (every update-path mutation bumps the device
/// epoch). A stale entry can therefore never serve across a version
/// boundary.
///
/// Cycle-charging contract (preserved by RuleFilter::lookup_memo): a
/// memo hit returns the identical verdict and charges the identical
/// modeled *memory accesses* as the probe it replaces — so the paper's
/// access-count tables stay calibrated and per-packet memory_accesses
/// are invariant under the memo — but only one cycle of latency (the
/// ways of a set are tag-compared in parallel, like a set-associative
/// cache, so associativity does not change the hit cost). Per-packet
/// cycles are therefore <= the scalar path's, never different in
/// accesses.
class ProbeMemo {
 public:
  static constexpr u32 kDefaultSlots = 512;
  static constexpr u32 kWays = 2;  // the one-bit LRU (w ^ 1) assumes 2

  /// \p slots is the total entry count, rounded up to a power of two
  /// (>= 16) and divided into sets of kWays. An overflowing cluster
  /// simply stops memoizing (correctness is unaffected; the probe runs
  /// for real).
  explicit ProbeMemo(u32 slots = kDefaultSlots);

  /// The entry count a memo built with \p slots actually has (the
  /// constructor's rounding rule). Callers that cache a ProbeMemo and
  /// rebuild on geometry change compare against this — one shared
  /// definition, so the check can never desync from the constructor.
  [[nodiscard]] static u32 normalized_slots(u32 slots);

  /// Bind the memo to a device state before a batch: \p device_id is a
  /// process-unique classifier id (never reused, unlike an address) and
  /// \p epoch that device's update epoch. Returns true when the binding
  /// changed — every cached combination was just invalidated (O(1)
  /// generation bump); false when the memo carried over and hits may
  /// compound across batches.
  bool bind(u64 device_id, u64 epoch) {
    if (device_id == bound_device_ && epoch == bound_epoch_) return false;
    bound_device_ = device_id;
    bound_epoch_ = epoch;
    ++gen_;
    return true;
  }

  [[nodiscard]] u32 slots() const { return static_cast<u32>(entries_.size()); }

  /// Replacements that overwrote a *live* entry holding a different key
  /// (a conflict miss made visible). Cumulative over the memo's
  /// lifetime; invalidations do not reset it. Surfaced per dataplane
  /// worker as probe_memo_conflict_evictions.
  [[nodiscard]] u64 conflict_evictions() const { return conflict_evictions_; }

 private:
  friend class RuleFilter;

  struct Entry {
    Key68 key{};
    u64 gen = 0;  ///< live iff == ProbeMemo::gen_
    bool matched = false;
    RuleEntry entry{};
    u32 probe_accesses = 0;  ///< reads the memoized probe performed
  };

  // Small associativity on purpose: a memo miss must stay at two tag
  // compares and one overwrite, because low-reuse workloads (acl-like
  // cross-products, where nearly every combination is fresh) pay it on
  // every probe. A colliding hot combination merely re-probes —
  // correctness never depends on the memo's hit rate. Entries of set s
  // live at entries_[s * kWays .. s * kWays + kWays - 1]; lru_[s] names
  // the way to replace next. Invalidation stays O(1): the generation
  // bump makes every entry invalid, and replacement prefers invalid
  // ways, so stale LRU bits are harmless.
  std::vector<Entry> entries_;
  std::vector<u8> lru_;
  u64 gen_ = 1;
  u32 set_mask_ = 0;
  u64 conflict_evictions_ = 0;
  u64 bound_device_ = 0;  ///< 0 = unbound (classifier ids start at 1)
  u64 bound_epoch_ = 0;
};

/// Hashed rule memory.
class RuleFilter {
 public:
  /// \param depth       bucket count.
  /// \param max_probes  linear-probe bound; insert throws CapacityError
  ///                    beyond it (the controller re-seeds or resizes).
  RuleFilter(const std::string& name, u32 depth, u32 max_probes,
             u64 hash_seed);

  // ---- controller-side update path ----

  /// Store \p entry under \p key. A rule upload is the paper's §V.A cost:
  /// the caller logs one hash compute, and the entry occupies one word
  /// (written in two pin-limited halves — two commands — matching "one
  /// cycle to store source information and one clock cycle to store
  /// destination information").
  /// \throws CapacityError when the probe bound or load limit is hit.
  /// \throws InternalError on duplicate key (rule dedup is upstream).
  void insert(const Key68& key, const RuleEntry& entry, hw::CommandLog& log);

  /// Remove the entry stored under \p key (tombstoned).
  void remove(const Key68& key, hw::CommandLog& log);

  /// Rewrite the entry stored under \p key in place (OpenFlow MODIFY:
  /// same match, new action/priority). Costs one hash (logged by the
  /// caller) plus the two-beat word rewrite — as cheap as an insert.
  /// \throws InternalError if the key is not present.
  void modify(const Key68& key, const RuleEntry& entry, hw::CommandLog& log);

  /// Rebuild the table under a fresh hash seed (the controller's answer
  /// to a probe-bound CapacityError): every live entry is re-hashed and
  /// re-uploaded; tombstones are discarded. Cost = the full re-upload,
  /// metered through \p log.
  /// \throws CapacityError if the new seed also fails (caller re-seeds
  /// again or resizes).
  void reseed(u64 new_seed, hw::CommandLog& log);

  void clear(hw::CommandLog& log);

  // ---- hardware-side lookup path ----

  /// Probe for \p key. Cycle-charging contract: one hash-unit cycle,
  /// then one memory read (1 cycle + 1 access) per slot walked along
  /// the linear-probe chain, all charged into \p rec (nullptr = an
  /// uncounted controller-side peek). The cost of probing a given key
  /// is deterministic while the table is unchanged — which is what
  /// makes the ProbeMemo's cost replay exact.
  [[nodiscard]] std::optional<RuleEntry> lookup(const Key68& key,
                                                hw::CycleRecorder* rec) const;

  /// Memoizing probe (the batch combiner's entry point): consult
  /// \p memo first; on a hit charge one cycle plus the replaced probe's
  /// memory accesses (see ProbeMemo's contract) and bump \p memo_hits;
  /// on a miss run the real probe, charge its true cost, and memoize
  /// the (verdict, access-count) pair for as long as the memo's device
  /// binding holds. The table must not be mutated while entries are
  /// live — guaranteed because every update-path mutation bumps the
  /// device epoch (so bind() drops the entries) and the dataplane
  /// classifies against frozen snapshots.
  [[nodiscard]] std::optional<RuleEntry> lookup_memo(const Key68& key,
                                                     hw::CycleRecorder* rec,
                                                     ProbeMemo& memo,
                                                     u64& memo_hits) const;

  // ---- introspection ----

  [[nodiscard]] const hw::Memory& memory() const { return mem_; }
  [[nodiscard]] u32 size() const { return live_; }
  [[nodiscard]] u32 tombstones() const { return tombstones_; }
  [[nodiscard]] double load_factor() const {
    return static_cast<double>(live_ + tombstones_) /
           static_cast<double>(mem_.depth());
  }

  /// Word layout width: valid(1) tomb(1) key(68) rule(16) prio(16)
  /// action(16) = 118 bits.
  static constexpr unsigned kWordBits = 1 + 1 + 68 + 16 + 16 + 16;

 private:
  struct Slot {
    bool valid = false;
    bool tombstone = false;
    Key68 key{};
    RuleEntry entry{};
  };

  [[nodiscard]] Slot decode(u32 addr, hw::CycleRecorder* rec) const;
  void encode(u32 addr, const Slot& s, hw::CommandLog& log);

  hw::Memory mem_;
  Key68Hasher hasher_;
  u32 max_probes_;
  u32 live_ = 0;
  u32 tombstones_ = 0;
};

}  // namespace pclass::core
