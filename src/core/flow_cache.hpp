/// \file flow_cache.hpp
/// Exact-match flow cache in front of the classifier. The paper's flow
/// premise (§I: "It is only necessary that the first packet header of a
/// flow matches the matching rule") means steady-state traffic should
/// hit an exact 5-tuple table in one memory access; only flow-opening
/// packets pay the full 4-phase lookup. This block models that fast
/// path: a direct-mapped (1-way) hash table over the 104-bit 5-tuple,
/// filled by the data plane on classification results.
///
/// A rule update drops only the lines whose verdict it can change (an
/// exact classifier returns the best matching rule, lowest priority
/// value then lowest id):
///   * an add of rule R drops the lines whose tuple R matches, unless
///     the cached verdict beats R; a cached miss that R matches is
///     dropped too (invalidate_matching);
///   * a delete or modify of R drops the lines whose verdict is R
///     (invalidate_rule);
///   * anything else flushes the whole cache (invalidate_all, a
///     single-cycle valid-bit clear in hardware).
/// The modelled line keeps only a fingerprint of the tuple, so matching
/// a rule against the cached flows needs the tuple itself: the host
/// keeps it, with the cached rule and priority, in column arrays beside
/// the line memory. A device would store the full 104-bit tuple in the
/// line to do the same. The scan is charged as modelled cost: the device
/// compares every line (one compare each, scan_compares) and writes each
/// line it drops (lines_invalidated).
///
/// The host skips what cannot change: it tests 64-line blocks by one
/// column first, one AND and compare per line (the address column of
/// the longer prefix for an add, destination on a tie; the verdict
/// column for a delete), and runs the full test only in blocks where a
/// line passes. On a full 4096-line cache (Release build, shared 2-vCPU
/// x86-64 host, `bench_micro --benchmark_filter=FlowCacheCatchUp`) an
/// aimed /32 add scans in ~0.8 us and its delete in ~0.65 us, against
/// ~4.6 us and ~2.4 us for a scan of every line; a rule with both
/// addresses wild tests every block and costs what a full scan did
/// (~4.3 us).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/types.hpp"
#include "core/rule_filter.hpp"
#include "hwsim/memory.hpp"
#include "net/five_tuple.hpp"
#include "ruleset/rule.hpp"

namespace pclass::core {

/// Hit/miss counters of the cache.
struct FlowCacheStats {
  u64 hits = 0;
  u64 misses = 0;
  u64 fills = 0;
  u64 invalidations = 0;      ///< full flushes (invalidate_all)
  u64 lines_invalidated = 0;  ///< lines dropped by a per-update scan (one
                              ///< write each)
  u64 scan_compares = 0;      ///< lines compared by per-update scans

  bool operator==(const FlowCacheStats&) const = default;

  [[nodiscard]] double hit_rate() const {
    const u64 total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) /
                            static_cast<double>(total);
  }
};

/// Direct-mapped exact-match flow table.
class FlowCache {
 public:
  /// \param depth  number of cache lines (power of two not required).
  FlowCache(std::string name, u32 depth, u64 seed = 0xF10C ^ 0xCAFE);

  /// Look up a 5-tuple: one hash cycle + one memory read. A valid line
  /// with a matching stored tuple returns the cached verdict (which may
  /// be a cached *miss*: rule-less flows are cached too, as drop).
  [[nodiscard]] std::optional<std::optional<RuleEntry>> lookup(
      const net::FiveTuple& t, hw::CycleRecorder* rec);

  /// Install the classification verdict for \p t (data-plane fill; one
  /// write, not metered on the update bus — it is not a controller op).
  void fill(const net::FiveTuple& t, const std::optional<RuleEntry>& verdict);

  /// Rule \p r was added: drop every valid line whose tuple \p r
  /// matches, unless its cached verdict beats \p r (lower priority
  /// value, then lower rule id). Returns the lines dropped.
  usize invalidate_matching(const ruleset::Rule& r);

  /// Rule \p id was deleted or modified: drop every line whose cached
  /// verdict is \p id. Returns the lines dropped.
  usize invalidate_rule(RuleId id);

  /// Flush every line (the fallback when no per-update scan applies).
  void invalidate_all();

  /// The line flow \p t is cached in.
  [[nodiscard]] u32 line(const net::FiveTuple& t) const {
    return line_of(fingerprint(t));
  }

  [[nodiscard]] const FlowCacheStats& stats() const { return stats_; }
  [[nodiscard]] const hw::Memory& memory() const { return mem_; }

 private:
  /// Line layout: valid(1) cached_hit(1) tuple(104) rule(16) prio(16)
  /// action(16) = 154 bits -> two 128-bit words would be needed; we
  /// store the 104-bit tuple as a 64-bit fingerprint + the 32-bit hash
  /// tag instead, which is what a real implementation does:
  /// valid(1) cached_hit(1) fp(64) rule(16) prio(16) action(16) = 114.
  [[nodiscard]] u64 fingerprint(const net::FiveTuple& t) const;
  /// The line a tuple of fingerprint \p fp lives in.
  [[nodiscard]] u32 line_of(u64 fp) const;

  /// Lines per block of the host's skip test.
  static constexpr usize kBlock = 64;

  /// Drop the lines \p drops(i) names (one write each), calling it only
  /// in the kBlock-line blocks where some line has
  /// (col[i] & mask) == val: \p drops must be false elsewhere. Charges
  /// a compare for every line, skipped or not; returns the lines dropped.
  template <typename Drops>
  usize scan(const u32* col, u32 mask, u32 val, Drops drops);
  /// scan() over the \p len lines from \p base; returns the lines dropped.
  template <typename Drops>
  usize scan_block(usize base, usize len, const u32* col, u32 mask, u32 val,
                   Drops& drops);

  /// Line states (meta_ >> 8).
  static constexpr u32 kInvalid = 0;
  static constexpr u32 kCachedMiss = 1;
  static constexpr u32 kCachedHit = 2;

  hw::Memory mem_;
  u64 seed_;
  FlowCacheStats stats_;

  // Host-side columns, one u32 per line so the scans vectorize without
  // widening: fill() writes them all; the invalidations clear the state
  // in meta_ only.
  std::vector<u32> src_ip_;
  std::vector<u32> dst_ip_;
  std::vector<u32> ports_;    ///< src_port << 16 | dst_port
  std::vector<u32> verdict_;  ///< priority << 16 | rule (cached hits)
  std::vector<u32> meta_;     ///< state << 8 | protocol
};

}  // namespace pclass::core
