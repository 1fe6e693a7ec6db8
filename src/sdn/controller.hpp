/// \file controller.hpp
/// The control-plane side of Fig. 1/Fig. 2: a controller that programs
/// switches through FlowMod messages and picks the lookup algorithm per
/// the network application's requirement (§III.A: "The software
/// controller chooses the optimal algorithm combination ... For example,
/// speed is the critical parameter for a Multi-end videoconferencing
/// application").
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "sdn/flow_mod.hpp"
#include "sdn/southbound.hpp"

namespace pclass::sdn {

/// What a network application asks of the classification service.
struct AppRequirement {
  /// Expected flow-table size; beyond the MBT capacity the controller
  /// must fall back to the compact algorithm.
  usize expected_rules = 1000;
};

/// Southbound statistics of one controller.
struct ControllerStats {
  u64 flow_mods_sent = 0;
  u64 config_mods_sent = 0;
  u64 update_cycles_total = 0;
};

/// A (single-domain) SDN controller driving one or more switches.
class Controller {
 public:
  explicit Controller(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Attach any southbound consumer, e.g. the dataplane's
  /// RuleProgramPublisher (snapshot build-and-swap off the hot path
  /// instead of mutating a device under the lookup path).
  void attach(UpdateSink& sink) { sinks_.push_back(&sink); }

  /// Algorithm-selection policy (§III.A): fast MBT for applications
  /// whose table fits, compact BST for large tables.
  /// \param mbt_capacity  rules the MBT configuration can hold.
  [[nodiscard]] static core::IpAlgorithm select_algorithm(
      const AppRequirement& app, usize mbt_capacity) {
    return app.expected_rules > mbt_capacity ? core::IpAlgorithm::kBst
                                             : core::IpAlgorithm::kMbt;
  }

  /// Push a configuration for \p app to every attached switch.
  void configure(const AppRequirement& app, usize mbt_capacity);

  /// Install one rule on every attached switch.
  void install(const ruleset::Rule& rule, ActionSpec action);

  /// Install a whole filter set (actions taken from each rule's token)
  /// as one batch.
  void install_ruleset(const ruleset::RuleSet& rules);

  /// Remove a rule everywhere.
  void remove(RuleId id);

  [[nodiscard]] const ControllerStats& stats() const { return stats_; }

 private:
  void broadcast(std::span<const Message> msgs);
  void broadcast(const Message& msg) { broadcast({&msg, 1}); }

  std::string name_;
  std::vector<UpdateSink*> sinks_;
  ControllerStats stats_;
};

}  // namespace pclass::sdn
