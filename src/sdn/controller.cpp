#include "sdn/controller.hpp"

namespace pclass::sdn {

void Controller::broadcast(std::span<const Message> msgs) {
  for (UpdateSink* sink : sinks_) {
    const hw::UpdateStats cost = sink->handle(msgs);
    stats_.update_cycles_total += cost.cycles;
  }
  for (const Message& msg : msgs) {
    if (std::holds_alternative<FlowMod>(msg)) {
      ++stats_.flow_mods_sent;
    } else {
      ++stats_.config_mods_sent;
    }
  }
}

void Controller::configure(const AppRequirement& app, usize mbt_capacity) {
  const core::IpAlgorithm alg = select_algorithm(app, mbt_capacity);
  broadcast(ConfigMod{alg});
}

void Controller::install(const ruleset::Rule& rule, ActionSpec action) {
  broadcast(FlowMod::add(rule, action));
}

void Controller::install_ruleset(const ruleset::RuleSet& rules) {
  std::vector<Message> msgs;
  msgs.reserve(rules.size());
  for (const ruleset::Rule& r : rules) {
    msgs.emplace_back(FlowMod::add(r, ActionSpec::decode(r.action.token)));
  }
  broadcast(msgs);
}

void Controller::remove(RuleId id) {
  FlowMod fm;
  fm.command = FlowMod::Command::kDelete;
  fm.cookie = id;
  broadcast(fm);
}

}  // namespace pclass::sdn
