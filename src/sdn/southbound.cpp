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
  // ConfigMod: the IP-algorithm switch touches device memories (a
  // rebuild, costed).
  const auto& cm = std::get<ConfigMod>(msg);
  if (cm.ip_algorithm) return clf.set_ip_algorithm(*cm.ip_algorithm);
  return {};
}

}  // namespace pclass::sdn
