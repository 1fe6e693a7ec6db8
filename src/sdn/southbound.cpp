#include "sdn/southbound.hpp"

namespace pclass::sdn {

hw::UpdateStats apply_message(core::ConfigurableClassifier& clf,
                              const Message& msg) {
  if (const auto* fm = std::get_if<FlowMod>(&msg)) {
    switch (fm->command) {
      case FlowMod::Command::kAdd: {
        ruleset::Rule r = fm->match;
        r.id = fm->cookie;
        r.action = ruleset::Action{fm->action.encode()};
        return clf.add_rule(r);
      }
      case FlowMod::Command::kModify:
        return clf.modify_rule(fm->cookie,
                               ruleset::Action{fm->action.encode()});
      case FlowMod::Command::kDelete:
        return clf.remove_rule(fm->cookie);
    }
    return {};
  }
  // ConfigMod: apply every knob present. Only the IP-algorithm switch
  // touches device memories (a rebuild, costed); the path policy steers
  // host-side execution strategy and is free by the cost model.
  const auto& cm = std::get<ConfigMod>(msg);
  hw::UpdateStats cost;
  if (cm.path_policy) clf.set_batch_path_policy(*cm.path_policy);
  if (cm.ip_algorithm) {
    cost += clf.set_ip_algorithm(*cm.ip_algorithm);
  }
  return cost;
}

}  // namespace pclass::sdn
