/// \file southbound.hpp
/// The controller's southbound edge: anything that consumes Messages
/// (the dataplane's snapshot publisher) implements UpdateSink, and the
/// canonical message -> classifier mapping lives in apply_message so
/// every consumer programs a device identically.
#pragma once

#include <span>

#include "core/classifier.hpp"
#include "sdn/flow_mod.hpp"

namespace pclass::sdn {

/// A consumer of southbound messages.
class UpdateSink {
 public:
  virtual ~UpdateSink() = default;

  /// Apply a batch of messages; returns the measured device update cost.
  virtual hw::UpdateStats handle(std::span<const Message> msgs) = 0;
};

/// Apply \p msg to \p clf: FlowMod add/modify/delete (cookie becomes the
/// rule id, the ActionSpec is packed into the rule's action token) or
/// ConfigMod (IPalg_s select). The single source of truth for the
/// message semantics: every RuleProgramPublisher replica replays the
/// log through it.
hw::UpdateStats apply_message(core::ConfigurableClassifier& clf,
                              const Message& msg);

}  // namespace pclass::sdn
