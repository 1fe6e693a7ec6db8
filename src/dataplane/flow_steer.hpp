/// \file flow_steer.hpp
/// RSS-style flow steering for the dataplane Engine's shards.
///
/// A NIC with receive-side scaling hashes the 5-tuple of every ingress
/// packet and uses the hash to pick a receive queue; the software
/// analogue here steers each entry of a TrafficPool to a per-shard pool
/// before the workers start, so every shard sees a disjoint, per-flow
/// consistent slice of the traffic (all packets of one flow land on the
/// same shard — the invariant the per-shard flow caches rely on for
/// locality). Every shard holds the full ruleset, so steering only buys
/// cache locality: verdicts do not depend on the shard count.
#pragma once

#include <vector>

#include "common/bits.hpp"
#include "common/hash.hpp"
#include "dataplane/elements.hpp"
#include "net/five_tuple.hpp"

namespace pclass::dataplane {

/// The steering hash: mix64 avalanche over the 5-tuple.
[[nodiscard]] inline u64 steer_hash(const net::FiveTuple& t) {
  const u64 h = mix64((u64{t.src_ip} << 32) | t.dst_ip);
  return mix64(h ^ ((u64{t.src_port} << 32) | (u64{t.dst_port} << 8) |
                    t.protocol));
}

/// Shard index for one header: multiply-high range reduction of the
/// steering hash (uniform for any shard count, no modulo bias).
[[nodiscard]] inline usize shard_of(const net::FiveTuple& t, usize nshards) {
  if (nshards <= 1) return 0;
  return static_cast<usize>(mul_high_u64(steer_hash(t), nshards));
}

/// Split \p pool into \p nshards per-shard pools by steering hash
/// (the Engine's ingress stage). Raw-packet pools are steered by their
/// parsed header; unparsable packets — which every shard would drop
/// identically anyway — are spread round-robin.
/// \throws ConfigError when nshards == 0.
[[nodiscard]] std::vector<TrafficPool> steer_split(const TrafficPool& pool,
                                                   usize nshards);

}  // namespace pclass::dataplane
