/// \file service_chain.cpp
/// Network service function chaining — the motivating SDN use case of
/// the paper's introduction ("flows are directed through a series of
/// network services depending on the traffic or application type").
///
/// Three classification-backed switches implement a chain
///     ingress -> [DPI] -> [NAT] -> egress
/// where the classifier's group actions steer each traffic class to the
/// services it needs: web traffic through both services, VoIP past the
/// DPI (latency!), bulk traffic straight to egress.
///
///   $ ./service_chain
#include <iostream>
#include <map>

#include "common/random.hpp"
#include "common/table.hpp"
#include "dataplane/rule_program.hpp"
#include "ruleset/trace_gen.hpp"

using namespace pclass;

namespace {

// Group ids = next hop in the chain.
constexpr u16 kToDpi = 1;
constexpr u16 kToNat = 2;
constexpr u16 kToEgress = 3;

ruleset::Rule classify_rule(u32 id, ruleset::PortRange dport, u8 proto,
                            u16 next_hop) {
  ruleset::Rule r;
  r.id = RuleId{id};
  r.priority = id;
  r.dst_port = dport;
  r.proto = ruleset::ProtoMatch::exact(proto);
  r.action = ruleset::Action{sdn::ActionSpec::group(next_hop).encode()};
  return r;
}

}  // namespace

int main() {
  // One classifier-backed switch per chain position (constructed in
  // place: a publisher owns its hardware model and cannot be moved).
  std::map<std::string, dataplane::RuleProgramPublisher> chain;
  for (const char* name : {"ingress", "dpi", "nat"}) {
    chain.try_emplace(name, core::ClassifierConfig::for_scale(100));
  }

  // Per-switch chaining policy: the same traffic classes, but each
  // switch's group action points at ITS next hop in the chain.
  //   web (TCP 80/443)  -> DPI -> NAT -> egress
  //   voip (UDP 16384+) -> NAT -> egress (skips DPI: latency-critical)
  //   bulk (TCP 20/21)  -> egress directly
  auto program = [&](const std::string& sw, u16 web_hop, u16 voip_hop,
                     u16 bulk_hop) {
    auto push = [&](const ruleset::Rule& r) {
      sdn::FlowMod fm;
      fm.command = sdn::FlowMod::Command::kAdd;
      fm.cookie = r.id;
      fm.match = r;
      fm.action = sdn::ActionSpec::decode(r.action.token);
      chain.at(sw).apply(fm);
    };
    push(classify_rule(0, ruleset::PortRange::exact(80), net::kProtoTcp,
                       web_hop));
    push(classify_rule(1, ruleset::PortRange::exact(443), net::kProtoTcp,
                       web_hop));
    push(classify_rule(2, ruleset::PortRange::make(16384, 32767),
                       net::kProtoUdp, voip_hop));
    push(classify_rule(3, ruleset::PortRange::make(20, 21), net::kProtoTcp,
                       bulk_hop));
  };
  program("ingress", kToDpi, kToNat, kToEgress);
  program("dpi", kToNat, kToNat, kToEgress);
  program("nat", kToEgress, kToEgress, kToEgress);

  // Walk packets through the chain, following group actions.
  Rng rng(99);
  std::map<std::string, u64> path_count;
  struct Totals {
    u64 classified = 0;
    u64 matched = 0;
  };
  std::map<std::string, Totals> totals;
  for (int i = 0; i < 30000; ++i) {
    net::FiveTuple h;
    h.src_ip = static_cast<u32>(rng.next());
    h.dst_ip = static_cast<u32>(rng.next());
    h.src_port = static_cast<u16>(rng.between(1024, 65535));
    switch (rng.below(4)) {
      case 0: h.dst_port = 80; h.protocol = net::kProtoTcp; break;
      case 1: h.dst_port = 443; h.protocol = net::kProtoTcp; break;
      case 2:
        h.dst_port = static_cast<u16>(rng.between(16384, 32767));
        h.protocol = net::kProtoUdp;
        break;
      default: h.dst_port = 20; h.protocol = net::kProtoTcp; break;
    }

    std::string path = "ingress";
    std::string at = "ingress";
    // Follow the chain (at most 3 classification hops).
    for (int hop = 0; hop < 3; ++hop) {
      const auto res = chain.at(at).acquire()->classifier().classify(h);
      ++totals[at].classified;
      if (res.match) ++totals[at].matched;
      const sdn::ActionSpec action =
          res.match ? sdn::ActionSpec::decode(res.match->action)
                    : sdn::ActionSpec::drop();
      if (action.kind != sdn::ActionSpec::Kind::kGroup) {
        path += " -> drop";
        break;
      }
      if (action.arg == kToDpi) at = "dpi";
      else if (action.arg == kToNat) at = "nat";
      else { path += " -> egress"; break; }
      path += " -> " + at;
    }
    ++path_count[path];
  }

  std::cout << "service-chain paths over 30000 packets:\n";
  TextTable t({"path", "packets"});
  for (const auto& [path, n] : path_count) {
    t.add_row({path, std::to_string(n)});
  }
  t.print(std::cout);

  std::cout << "\nper-service lookup totals:\n";
  for (const auto& [name, count] : totals) {
    std::cout << "  " << name << ": " << count.classified
              << " packets classified, " << count.matched << " matched\n";
  }
  return 0;
}
