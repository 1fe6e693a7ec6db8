/// \file sdn_flow_programming.cpp
/// The paper's SDN programmability story (§III.A): a controller manages
/// two switches, picks the lookup algorithm per application requirement
/// (fast MBT for a real-time videoconferencing service, compact BST when
/// the tenant's table outgrows it), and performs live incremental
/// updates, reporting the measured per-FlowMod cost.
///
///   $ ./sdn_flow_programming
#include <iostream>

#include "common/table.hpp"
#include "dataplane/rule_program.hpp"
#include "ruleset/generator.hpp"
#include "ruleset/trace_gen.hpp"
#include "sdn/controller.hpp"

using namespace pclass;

namespace {

void show(const char* phase, const dataplane::RuleProgramPublisher& edge) {
  const auto snap = edge.acquire();
  const auto& clf = snap->classifier();
  std::cout << "  [edge0] " << phase << ": " << snap->rule_count()
            << " flows, IP algorithm " << to_string(clf.ip_algorithm())
            << ", update bus total " << clf.update_stats().cycles
            << " cycles\n";
}

/// The output port \p sw forwards \p t to (0 when no rule matches).
u16 port_of(const dataplane::RuleProgramPublisher& sw,
            const net::FiveTuple& t) {
  const auto res = sw.acquire()->classifier().classify(t);
  return res.match ? sdn::ActionSpec::decode(res.match->action).arg : 0;
}

}  // namespace

int main() {
  dataplane::RuleProgramPublisher edge(
      core::ClassifierConfig::for_scale(5000));
  dataplane::RuleProgramPublisher core_sw(
      core::ClassifierConfig::for_scale(5000));
  sdn::Controller ctl("controller0");
  ctl.attach(edge);
  ctl.attach(core_sw);

  // Phase 1 — a real-time videoconferencing application: the controller
  // selects the fast MBT configuration (§III.A's example) and installs
  // media-session pinning rules one by one as sessions arrive.
  const usize mbt_capacity = 8000;  // Table VI MBT working point
  ctl.configure({.expected_rules = 500}, mbt_capacity);
  show("after real-time config", edge);

  // Sessions share the RTP port range and are pinned per destination
  // host — unique field values stay within the 7-bit port label budget
  // no matter how many sessions arrive (the label method at work).
  u64 cycles_per_session = 0;
  for (u16 s = 0; s < 100; ++s) {
    ruleset::Rule r;
    r.id = RuleId{s};
    r.priority = s;
    r.src_ip = ruleset::IpPrefix::make(ipv4(172, 16, 0, 0), 12);
    r.dst_ip = ruleset::IpPrefix::make(
        ipv4(203, 0, static_cast<u8>(s / 4), static_cast<u8>(s % 256)), 32);
    r.dst_port = ruleset::PortRange::make(16384, 32767);  // RTP range
    r.proto = ruleset::ProtoMatch::exact(net::kProtoUdp);
    ctl.install(r, sdn::ActionSpec::output(static_cast<u16>(1 + s % 4)));
  }
  cycles_per_session = ctl.stats().update_cycles_total;
  std::cout << "  100 media sessions pinned; mean FlowMod cost "
            << TextTable::num(static_cast<double>(cycles_per_session) /
                                  (100.0 * 2 /*switches*/),
                              1)
            << " bus cycles/switch\n";
  show("after session setup", edge);

  // A media packet follows the pinned path on both switches.
  const net::FiveTuple rtp{ipv4(172, 16, 9, 9), ipv4(203, 0, 5, 21), 9000,
                           20000, net::kProtoUdp};
  std::cout << "  RTP " << net::to_string(rtp) << " -> edge port "
            << port_of(edge, rtp) << ", core port "
            << port_of(core_sw, rtp) << "\n\n";

  // Phase 2 — a tenant pushes a 5K-rule policy: beyond the MBT capacity
  // budget, so the controller re-configures to the compact BST and bulk
  // loads (IPalg_s flip + Fig. 5 shared-memory re-binding happen inside).
  const ruleset::RuleSet policy =
      ruleset::make_classbench_like(ruleset::FilterType::kIpc, 5000);
  ctl.configure({.expected_rules = 12000}, mbt_capacity);
  show("after capacity reconfig", edge);

  // Sessions from phase 1 still forward after the algorithm switch.
  std::cout << "  RTP after reconfig -> edge port "
            << port_of(edge, rtp) << "\n";

  // Offset ids so tenant rules do not collide with the session rules.
  ruleset::RuleSet tenant("tenant");
  for (const auto& r : policy) {
    ruleset::Rule copy = r;
    copy.id = RuleId{1000 + r.id.value};
    copy.priority = 1000 + r.priority;
    copy.action = ruleset::Action{
        sdn::ActionSpec::group(static_cast<u16>(r.action.token % 32))
            .encode()};
    tenant.add_verbatim(copy);
  }
  u64 before = ctl.stats().update_cycles_total;
  ctl.install_ruleset(tenant);  // one batch: one publish per switch
  std::cout << "  5K-rule tenant policy installed, "
            << (ctl.stats().update_cycles_total - before) / 2
            << " bus cycles per switch\n";
  show("after tenant load", edge);

  // Phase 3 — flow teardown: delete the media sessions incrementally.
  before = ctl.stats().update_cycles_total;
  for (u16 s = 0; s < 100; ++s) {
    ctl.remove(RuleId{s});
  }
  std::cout << "  teardown of 100 sessions cost "
            << (ctl.stats().update_cycles_total - before) / 2
            << " bus cycles per switch\n";
  show("after teardown", edge);

  std::cout << "\ncontroller totals: " << ctl.stats().flow_mods_sent
            << " FlowMods, " << ctl.stats().config_mods_sent
            << " ConfigMods, " << ctl.stats().update_cycles_total
            << " update-bus cycles across the fabric\n";
  return 0;
}
