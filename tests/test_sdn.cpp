// SDN layer: action encoding, ConfigMod handling, and the controller's
// algorithm-selection policy and broadcast to the publishers it programs.
#include <gtest/gtest.h>

#include "dataplane/rule_program.hpp"
#include "sdn/controller.hpp"

using namespace pclass;
using namespace pclass::sdn;
using pclass::dataplane::RuleProgramPublisher;
using pclass::ruleset::IpPrefix;
using pclass::ruleset::PortRange;
using pclass::ruleset::ProtoMatch;
using pclass::ruleset::Rule;

namespace {

Rule web_rule(u32 id) {
  Rule r;
  r.id = RuleId{id};
  r.priority = id;
  r.dst_ip = IpPrefix::make(ipv4(10, 0, 0, 0), 8);
  r.dst_port = PortRange::exact(80);
  r.proto = ProtoMatch::exact(net::kProtoTcp);
  return r;
}

net::FiveTuple web_header() {
  return {ipv4(1, 2, 3, 4), ipv4(10, 9, 8, 7), 5555, 80, net::kProtoTcp};
}

FlowMod add_mod(const Rule& r, ActionSpec a) {
  FlowMod fm;
  fm.command = FlowMod::Command::kAdd;
  fm.cookie = r.id;
  fm.match = r;
  fm.action = a;
  return fm;
}

/// The action \p sw's current snapshot takes on \p h (drop on a miss).
ActionSpec action_for(const RuleProgramPublisher& sw,
                      const net::FiveTuple& h) {
  const auto res = sw.acquire()->classifier().classify(h);
  return res.match ? ActionSpec::decode(res.match->action)
                   : ActionSpec::drop();
}

usize rule_count(const RuleProgramPublisher& sw) {
  return sw.acquire()->rule_count();
}

}  // namespace

TEST(ActionSpecTest, EncodeDecodeRoundTrip) {
  for (const ActionSpec a : {ActionSpec::drop(), ActionSpec::output(12),
                             ActionSpec::group(0x3FFF)}) {
    EXPECT_EQ(ActionSpec::decode(a.encode()), a);
  }
}

TEST(ConfigMod, SwitchesAlgorithmThroughPublisher) {
  RuleProgramPublisher sw;
  sw.apply(add_mod(web_rule(1), ActionSpec::output(1)));
  EXPECT_EQ(sw.acquire()->classifier().ip_algorithm(),
            core::IpAlgorithm::kMbt);
  const auto cost = sw.apply(ConfigMod{core::IpAlgorithm::kBst});
  EXPECT_GT(cost.config_toggles, 0u);
  EXPECT_EQ(sw.acquire()->classifier().ip_algorithm(),
            core::IpAlgorithm::kBst);
  // Still forwards correctly after the switch.
  EXPECT_EQ(action_for(sw, web_header()), ActionSpec::output(1));
  // And the third backend family rides the same ConfigMod.
  const auto cost2 = sw.apply(ConfigMod{core::IpAlgorithm::kRvh});
  EXPECT_GT(cost2.config_toggles, 0u);
  EXPECT_EQ(sw.acquire()->classifier().ip_algorithm(),
            core::IpAlgorithm::kRvh);
  EXPECT_EQ(action_for(sw, web_header()), ActionSpec::output(1));
}

TEST(Controller, PolicyPicksBstForLargeTables) {
  EXPECT_EQ(Controller::select_algorithm({.expected_rules = 500}, 8000),
            core::IpAlgorithm::kMbt);
  EXPECT_EQ(Controller::select_algorithm({.expected_rules = 12000}, 8000),
            core::IpAlgorithm::kBst);
}

TEST(Controller, BroadcastsToAllSwitches) {
  RuleProgramPublisher s1, s2;
  Controller ctl("c0");
  ctl.attach(s1);
  ctl.attach(s2);
  ctl.install(web_rule(1), ActionSpec::output(2));
  EXPECT_EQ(rule_count(s1), 1u);
  EXPECT_EQ(rule_count(s2), 1u);
  EXPECT_EQ(ctl.stats().flow_mods_sent, 1u);
  EXPECT_GT(ctl.stats().update_cycles_total, 0u);
  EXPECT_EQ(action_for(s2, web_header()), ActionSpec::output(2));

  ctl.remove(RuleId{1});
  EXPECT_EQ(rule_count(s1), 0u);
  EXPECT_EQ(rule_count(s2), 0u);
}

TEST(Controller, ConfigureDrivesIpAlgS) {
  RuleProgramPublisher s1, s2;
  Controller ctl("c0");
  ctl.attach(s1);
  ctl.attach(s2);
  ctl.configure({.expected_rules = 20000}, 8000);
  EXPECT_EQ(s1.acquire()->classifier().ip_algorithm(),
            core::IpAlgorithm::kBst);
  EXPECT_EQ(s2.acquire()->classifier().ip_algorithm(),
            core::IpAlgorithm::kBst);
  EXPECT_EQ(ctl.stats().config_mods_sent, 1u);
}

TEST(Controller, InstallRuleset) {
  RuleProgramPublisher s1, s2;
  Controller ctl("c0");
  ctl.attach(s1);
  ctl.attach(s2);
  ruleset::RuleSet rs;
  for (u32 i = 0; i < 10; ++i) {
    Rule r = web_rule(i);
    r.dst_port = PortRange::exact(static_cast<u16>(8000 + i));
    r.action = ruleset::Action{ActionSpec::output(static_cast<u16>(i))
                                   .encode()};
    rs.add(r);
  }
  ctl.install_ruleset(rs);
  EXPECT_EQ(ctl.stats().flow_mods_sent, 10u);
  net::FiveTuple h = web_header();
  h.dst_port = 8004;
  for (const RuleProgramPublisher* sw : {&s1, &s2}) {
    EXPECT_EQ(rule_count(*sw), 10u);
    EXPECT_EQ(action_for(*sw, h), ActionSpec::output(4));
    // The whole set is one batch: one publish per publisher.
    EXPECT_EQ(sw->stats().publishes, 1u);
    EXPECT_EQ(sw->stats().updates_applied, 10u);
  }
}
