#include "workload/trace_synth.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "net/packet.hpp"
#include "workload/ruleset_synth.hpp"

namespace pclass::workload {

ZipfSampler::ZipfSampler(usize n, double s) {
  if (n == 0) throw ConfigError("ZipfSampler: n must be > 0");
  if (s < 0) throw ConfigError("ZipfSampler: s must be >= 0");
  cdf_.resize(n);
  double acc = 0;
  for (usize i = 0; i < n; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = acc;
  }
}

usize ZipfSampler::draw(Rng& rng) const {
  const double u = rng.uniform() * cdf_.back();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<usize>(static_cast<usize>(it - cdf_.begin()),
                         cdf_.size() - 1);
}

TraceSynthesizer::TraceSynthesizer(const ruleset::RuleSet& rules,
                                   TraceProfile profile)
    : rules_(rules), profile_(std::move(profile)), rng_(profile_.seed) {
  if (rules.empty()) {
    throw ConfigError("TraceSynthesizer: rule set is empty");
  }
  profile_.validate();
}

net::Trace TraceSynthesizer::generate() {
  // Materialize the flow population. Flows concentrate on high-priority
  // rules (the usual deployment shape) via a squared-uniform draw.
  struct Flow {
    net::FiveTuple header;
    RuleId origin;
  };
  std::vector<Flow> flows;
  flows.reserve(profile_.flows);
  for (usize f = 0; f < profile_.flows; ++f) {
    const double u = rng_.uniform();
    const usize idx = std::min(
        static_cast<usize>(u * u * static_cast<double>(rules_.size())),
        rules_.size() - 1);
    const ruleset::Rule& r = rules_[idx];
    flows.push_back({header_inside(r, rng_), r.id});
  }

  const ZipfSampler zipf(flows.size(), profile_.zipf_s);
  std::vector<usize> working_set;  // ring of recently active flows
  working_set.reserve(profile_.working_set);
  usize ws_next = 0;
  auto touch = [&](usize flow) {
    if (working_set.size() < profile_.working_set) {
      working_set.push_back(flow);
    } else {
      working_set[ws_next] = flow;
      ws_next = (ws_next + 1) % profile_.working_set;
    }
  };

  net::Trace trace;
  for (usize i = 0; i < profile_.packets; ++i) {
    net::TraceEntry e;
    if (rng_.chance(profile_.miss_fraction)) {
      e.header.src_ip = static_cast<u32>(rng_.next());
      e.header.dst_ip = static_cast<u32>(rng_.next());
      e.header.src_port = static_cast<u16>(rng_.next());
      e.header.dst_port = static_cast<u16>(rng_.next());
      static constexpr u8 kMissProtos[] = {net::kProtoTcp, net::kProtoUdp,
                                           net::kProtoIcmp, 47, 50};
      e.header.protocol = kMissProtos[rng_.below(std::size(kMissProtos))];
    } else {
      usize flow;
      if (!working_set.empty() && rng_.chance(profile_.locality)) {
        flow = working_set[rng_.below(working_set.size())];  // burst
      } else {
        flow = zipf.draw(rng_);
        touch(flow);
      }
      e.header = flows[flow].header;
      e.origin_rule = flows[flow].origin;
    }
    trace.add(e);
  }
  return trace;
}

net::Trace make_cache_thrash_trace(const ruleset::RuleSet& rules,
                                   usize packets, usize distinct_flows,
                                   u64 seed) {
  if (rules.empty()) {
    throw ConfigError("make_cache_thrash_trace: rule set is empty");
  }
  if (distinct_flows == 0) {
    throw ConfigError("make_cache_thrash_trace: distinct_flows must be > 0");
  }
  Rng rng(seed);
  struct Flow {
    net::FiveTuple header;
    RuleId origin;
  };
  std::vector<Flow> flows;
  flows.reserve(distinct_flows);
  for (usize f = 0; f < distinct_flows; ++f) {
    const ruleset::Rule& r = rules[f % rules.size()];
    flows.push_back({header_inside(r, rng), r.id});
  }
  // Strict round-robin: every flow's repeat distance equals the flow
  // count, so any cache with fewer lines than flows misses every time.
  net::Trace trace;
  for (usize i = 0; i < packets; ++i) {
    const Flow& f = flows[i % flows.size()];
    net::TraceEntry e;
    e.header = f.header;
    e.origin_rule = f.origin;
    trace.add(e);
  }
  return trace;
}

net::Trace make_trie_depth_trace(const ruleset::RuleSet& rules,
                                 usize packets, u64 seed) {
  if (rules.empty()) {
    throw ConfigError("make_trie_depth_trace: rule set is empty");
  }
  Rng rng(seed);
  // The deepest lookups walk the longest installed prefixes; rank rules
  // by combined prefix length and keep the worst offenders.
  std::vector<usize> order(rules.size());
  std::iota(order.begin(), order.end(), usize{0});
  std::stable_sort(order.begin(), order.end(), [&](usize a, usize b) {
    const unsigned la = rules[a].src_ip.length + rules[a].dst_ip.length;
    const unsigned lb = rules[b].src_ip.length + rules[b].dst_ip.length;
    return la > lb;
  });
  const usize deep = std::min<usize>(order.size(),
                                     std::max<usize>(16, order.size() / 16));
  order.resize(deep);

  net::Trace trace;
  for (usize i = 0; i < packets; ++i) {
    const ruleset::Rule& r = rules[order[i % order.size()]];
    net::TraceEntry e;
    e.header = header_inside(r, rng);
    // Defeat the flow cache (fresh ports each packet where the rule
    // allows) so every packet pays the full deep walk.
    if (r.src_port.lo != r.src_port.hi) {
      e.header.src_port =
          static_cast<u16>(rng.between(r.src_port.lo, r.src_port.hi));
    }
    if (r.dst_port.lo != r.dst_port.hi) {
      e.header.dst_port =
          static_cast<u16>(rng.between(r.dst_port.lo, r.dst_port.hi));
    }
    if (rng.chance(0.25)) {
      // Near-miss probe: same deep path, last prefix bit flipped — walks
      // the full depth and then (usually) falls through to a miss.
      if (r.src_ip.length > 0) {
        e.header.src_ip ^= u32{1} << (32 - r.src_ip.length);
        e.origin_rule.reset();
      }
    } else {
      e.origin_rule = r.id;
    }
    trace.add(e);
  }
  return trace;
}

UpdateStorm make_update_storm(const ruleset::RuleSet& base_rules,
                              usize updates, u32 first_id, u64 seed,
                              u32 site) {
  Rng rng(seed);
  if (site > 0xFF) {
    throw ConfigError("make_update_storm: site must fit one octet");
  }
  // The Rule Filter stores ids in a 16-bit field; the whole churn id
  // window must fit.
  if (u64{first_id} + 256 > 0x10000) {
    throw ConfigError(
        "make_update_storm: first_id + 256 must stay within 16-bit rule "
        "ids");
  }
  for (const ruleset::Rule& r : base_rules) {
    if (r.id.valid() && r.id.value >= first_id) {
      throw ConfigError(
          "make_update_storm: base rule ids collide with the churn id "
          "range starting at " +
          std::to_string(first_id));
    }
  }
  UpdateStorm storm;
  storm.schedule.reserve(updates);
  // Churn rules cycle through a bounded id window so the storm exercises
  // re-insertion of previously-deleted ids (the hard publisher path).
  constexpr u32 kChurnWindow = 256;
  for (usize k = 0; storm.schedule.size() < updates; ++k) {
    const u32 slot = static_cast<u32>(k) % kChurnWindow;
    ruleset::Rule r;
    r.src_ip = ruleset::IpPrefix::make(
        0x0A000000u | (site << 16) | (slot << 8) |
            (static_cast<u32>(rng.next()) & 0xFFu),
        32);
    r.dst_ip = ruleset::IpPrefix::make(0x0B000000u, 8);
    r.src_port = ruleset::PortRange::wildcard();
    r.dst_port = ruleset::PortRange::exact(
        static_cast<u16>(rng.between(1024, 65535)));
    r.proto = ruleset::ProtoMatch::exact(net::kProtoTcp);
    r.id = RuleId{first_id + slot};
    r.priority = 0;  // in front of the whole installed set
    r.action = ruleset::Action{sdn::ActionSpec::output(7).encode()};

    storm.schedule.emplace_back(
        sdn::FlowMod::add(r, sdn::ActionSpec::decode(r.action.token)));
    ++storm.add_count;
    if (storm.schedule.size() >= updates) break;

    sdn::FlowMod del;
    del.command = sdn::FlowMod::Command::kDelete;
    del.cookie = r.id;
    storm.schedule.emplace_back(del);
    ++storm.delete_count;
  }
  return storm;
}

}  // namespace pclass::workload
