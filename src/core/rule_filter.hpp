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
  /// is deterministic while the table is unchanged.
  [[nodiscard]] std::optional<RuleEntry> lookup(const Key68& key,
                                                hw::CycleRecorder* rec) const;

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

  /// The slot after \p addr on a probe chain, wrapping at the end of the
  /// memory: the addresses (home + probe) mod depth, stepped without a
  /// division (the hash keeps home below depth).
  [[nodiscard]] u32 next_addr(u32 addr) const {
    return addr + 1 == mem_.depth() ? 0 : addr + 1;
  }

  [[nodiscard]] Slot decode(u32 addr, hw::CycleRecorder* rec) const;
  void encode(u32 addr, const Slot& s, hw::CommandLog& log);

  hw::Memory mem_;
  Key68Hasher hasher_;
  u32 max_probes_;
  u32 live_ = 0;
  u32 tombstones_ = 0;
};

}  // namespace pclass::core
