#include "core/flow_cache.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace pclass::core {

namespace {
constexpr unsigned kLineBits = 1 + 1 + 64 + 16 + 16 + 16;

/// Network mask of an IP prefix of \p length bits.
constexpr u32 prefix_mask(u8 length) {
  return length == 0 ? 0u : ~0u << (32 - length);
}

/// Whether some value of \p col[0, n) has (value & mask) == val: one AND
/// and compare per value, OR-reduced without a branch.
inline bool any_masked_equal(const u32* col, usize n, u32 mask, u32 val) {
  if (mask == 0) return val == 0;  // a /0 holds every value
  u32 hit = 0;
  for (usize i = 0; i < n; ++i) {
    hit |= static_cast<u32>((col[i] & mask) == val);
  }
  return hit != 0;
}
}  // namespace

FlowCache::FlowCache(std::string name, u32 depth, u64 seed)
    : mem_(std::move(name), depth, kLineBits),
      seed_(seed),
      src_ip_(depth),
      dst_ip_(depth),
      ports_(depth),
      verdict_(depth),
      meta_(depth, kInvalid << 8) {}

u64 FlowCache::fingerprint(const net::FiveTuple& t) const {
  const u64 a = (u64{t.src_ip} << 32) | t.dst_ip;
  const u64 b = (u64{t.src_port} << 24) | (u64{t.dst_port} << 8) |
                t.protocol;
  return mix64(a ^ mix64(b ^ seed_));
}

u32 FlowCache::line_of(u64 fp) const {
  return static_cast<u32>(
      mul_high_u64(mix64(fp ^ (seed_ >> 3)), mem_.depth()));
}

std::optional<std::optional<RuleEntry>> FlowCache::lookup(
    const net::FiveTuple& t, hw::CycleRecorder* rec) {
  if (rec != nullptr) {
    rec->charge(1, 0);  // hash unit
  }
  const u64 fp = fingerprint(t);
  hw::WordUnpacker u(mem_.read(line_of(fp), rec));
  const bool valid = u.pull(1) != 0;
  const bool cached_hit = u.pull(1) != 0;
  if (!valid || u.pull(64) != fp) {
    ++stats_.misses;
    return std::nullopt;  // cache miss: caller runs the full pipeline
  }
  ++stats_.hits;
  if (!cached_hit) {
    // Cached negative verdict: engaged outer optional, empty inner one.
    return std::optional<std::optional<RuleEntry>>{
        std::optional<RuleEntry>{}};
  }
  RuleEntry e;
  e.rule = RuleId{static_cast<u32>(u.pull(16))};
  e.priority = static_cast<Priority>(u.pull(16));
  e.action = static_cast<u32>(u.pull(16));
  return std::optional<std::optional<RuleEntry>>{e};
}

void FlowCache::fill(const net::FiveTuple& t,
                     const std::optional<RuleEntry>& verdict) {
  const u32 rule = verdict ? (verdict->rule.value & 0xFFFFu) : 0;
  const u32 prio = verdict ? (verdict->priority & 0xFFFFu) : 0;
  const u64 fp = fingerprint(t);
  hw::WordPacker p;
  p.push(1, 1);
  p.push(verdict.has_value() ? 1 : 0, 1);
  p.push(fp, 64);
  p.push(rule, 16);
  p.push(prio, 16);
  p.push(verdict ? (verdict->action & 0xFFFFu) : 0, 16);
  const u32 i = line_of(fp);
  mem_.write(i, p.word());
  src_ip_[i] = t.src_ip;
  dst_ip_[i] = t.dst_ip;
  ports_[i] = u32{t.src_port} << 16 | t.dst_port;
  verdict_[i] = prio << 16 | rule;
  meta_[i] = (verdict ? kCachedHit : kCachedMiss) << 8 | t.protocol;
  ++stats_.fills;
}

template <typename Drops>
usize FlowCache::scan(const u32* col, u32 mask, u32 val, Drops drops) {
  const usize n = meta_.size();
  usize dropped = 0;
  for (usize base = 0; base < n; base += kBlock) {
    const usize len = std::min(kBlock, n - base);
    // A full block passes its length as a constant, so its loops
    // vectorize at -O2 too.
    dropped += len == kBlock ? scan_block(base, kBlock, col, mask, val, drops)
                             : scan_block(base, len, col, mask, val, drops);
  }
  stats_.scan_compares += n;
  stats_.lines_invalidated += dropped;
  return dropped;
}

template <typename Drops>
usize FlowCache::scan_block(usize base, usize len, const u32* col, u32 mask,
                            u32 val, Drops& drops) {
  if (!any_masked_equal(col + base, len, mask, val)) return 0;
  // Mark branch-free first, so a block every line of which is tested (a
  // wildcard-address add tests them all) still runs vectorized.
  u8 drop[kBlock];
  u32 marked = 0;
  for (usize j = 0; j < len; ++j) {
    drop[j] = static_cast<u8>(drops(base + j));
    marked += drop[j];
  }
  const u32 dropped = marked;
  for (usize j = 0; marked > 0; ++j) {
    if (drop[j] == 0) continue;
    mem_.write(static_cast<u32>(base + j), hw::Word{});  // valid bit cleared
    meta_[base + j] = kInvalid << 8;
    --marked;
  }
  return dropped;
}

usize FlowCache::invalidate_matching(const ruleset::Rule& r) {
  const u32 src_mask = prefix_mask(r.src_ip.length);
  const u32 dst_mask = prefix_mask(r.dst_ip.length);
  const u32 src_val = r.src_ip.value;
  const u32 dst_val = r.dst_ip.value;
  const u32 sp_lo = r.src_port.lo;
  const u32 dp_lo = r.dst_port.lo;
  const u32 sp_span = u32{r.src_port.hi} - sp_lo;
  const u32 dp_span = u32{r.dst_port.hi} - dp_lo;
  const u32 proto = r.proto.wildcard ? 0 : r.proto.value;
  const u32 proto_mask = r.proto.wildcard ? 0 : 0xFF;
  // The cached verdict beats r iff its (priority, rule) key is lower.
  const u32 key = (r.priority & 0xFFFFu) << 16 | (r.id.value & 0xFFFFu);
  const u32* src_ip = src_ip_.data();
  const u32* dst_ip = dst_ip_.data();
  const u32* ports = ports_.data();
  const u32* verdict = verdict_.data();
  const u32* meta = meta_.data();
  // Skip blocks by the address column the rule narrows most.
  const bool by_src = r.src_ip.length > r.dst_ip.length;
  return scan(by_src ? src_ip : dst_ip, by_src ? src_mask : dst_mask,
              by_src ? src_val : dst_val, [&](usize i) {
                const u32 state = meta[i] >> 8;
                const bool match =
                    ((src_ip[i] & src_mask) == src_val) &
                    ((dst_ip[i] & dst_mask) == dst_val) &
                    ((ports[i] >> 16) - sp_lo <= sp_span) &
                    ((ports[i] & 0xFFFFu) - dp_lo <= dp_span) &
                    ((meta[i] & proto_mask) == proto);
                const bool keep = (state == kCachedHit) & (verdict[i] < key);
                return (state != kInvalid) & match & !keep;
              });
}

usize FlowCache::invalidate_rule(RuleId id) {
  const u32 rule_id = id.value;
  const u32* verdict = verdict_.data();
  const u32* meta = meta_.data();
  return scan(verdict, 0xFFFFu, rule_id, [&](usize i) {
    return (meta[i] >> 8 == kCachedHit) & ((verdict[i] & 0xFFFFu) == rule_id);
  });
}

void FlowCache::invalidate_all() {
  mem_.clear();
  std::fill(meta_.begin(), meta_.end(), kInvalid << 8);
  ++stats_.invalidations;
}

}  // namespace pclass::core
