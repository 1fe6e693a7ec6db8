#include "dataplane/rule_program.hpp"

#include <thread>

#include "telemetry/trace_ring.hpp"

namespace pclass::dataplane {

RuleProgramPublisher::RuleProgramPublisher(core::ClassifierConfig cfg)
    : cfg_(cfg) {
  replicas_[0] = std::make_shared<RuleProgram>(cfg_);
  replicas_[1] = std::make_shared<RuleProgram>(cfg_);
  current_.store(replicas_[0], std::memory_order_release);
}

std::shared_ptr<RuleProgram>& RuleProgramPublisher::standby() {
  std::shared_ptr<RuleProgram>& sb = replicas_[1 - published_slot_];
  // Grace period: readers acquired this replica before it was retired
  // and may still be classifying a batch against it. Our array entry is
  // the only long-lived reference, so use_count()==1 means all readers
  // have drained. Batches are short; this converges in microseconds.
  while (sb.use_count() > 1) {
    ++stats_.grace_spins;
    std::this_thread::yield();
  }
  // use_count() is a relaxed load; fence so the drained readers' final
  // accesses happen-before our mutation of the replica (the classic
  // RCU-by-shared_ptr caveat on weakly-ordered CPUs).
  std::atomic_thread_fence(std::memory_order_acquire);
  return sb;
}

hw::UpdateStats RuleProgramPublisher::replay(RuleProgram& p,
                                             u64 charge_from) {
  // The standby first catches up on entries the other replica already
  // absorbed in earlier calls; those must not be charged again, or a
  // publisher-attached controller would account ~2x the cost of the
  // same messages sent to a SwitchDevice. Only entries >= charge_from
  // (this call's batch) contribute to the returned cost.
  hw::UpdateStats cost;
  while (p.version_ < log_base_ + log_.size()) {
    const hw::UpdateStats c =
        sdn::apply_message(p.clf_, log_[p.version_ - log_base_]);
    if (p.version_ >= charge_from) {
      cost += c;
    }
    ++p.version_;
  }
  return cost;
}

void RuleProgramPublisher::publish(const std::shared_ptr<RuleProgram>& next) {
  published_slot_ = (next == replicas_[0]) ? 0 : 1;
  // Timestamp *before* the swap: a worker can only observe the version
  // after the store below, so observe - publish is never negative by
  // construction (modulo clock reads racing the release, clamped by the
  // consumer).
  publish_clock_.note(next->version_, telemetry::steady_now_ns());
  current_.store(next, std::memory_order_release);
  published_version_.store(next->version_, std::memory_order_release);
  ++stats_.publishes;
}

void RuleProgramPublisher::rebuild_standby(std::shared_ptr<RuleProgram>& p) {
  const std::shared_ptr<RuleProgram>& good = replicas_[published_slot_];
  // Mirror the published replica's *entire* live configuration — a
  // ConfigMod in the log may have changed the IP algorithm since
  // construction, and a rebuild from the constructor config would
  // silently undo it on the standby.
  auto fresh = std::make_shared<RuleProgram>(good->clf_.config());
  for (const ruleset::Rule& r : good->clf_.installed_rules()) {
    fresh->clf_.add_rule(r);
  }
  fresh->version_ = good->version_;
  p = std::move(fresh);
}

hw::UpdateStats RuleProgramPublisher::apply(const sdn::Message& msg) {
  return apply_batch({&msg, 1});
}

hw::UpdateStats RuleProgramPublisher::apply_batch(
    std::span<const sdn::Message> msgs) {
  std::lock_guard<std::mutex> lk(writer_mu_);
  const usize log_mark = log_.size();
  const u64 new_from = log_base_ + log_mark;
  log_.insert(log_.end(), msgs.begin(), msgs.end());
  std::shared_ptr<RuleProgram>& sb = standby();
  hw::UpdateStats cost;
  try {
    if (fault_hook_) fault_hook_();
    cost = replay(*sb, new_from);
  } catch (...) {
    // All-or-nothing: drop the whole batch and restore the standby from
    // the (untouched) published replica, since a throwing update may
    // have left it half-mutated.
    log_.resize(log_mark);
    rebuild_standby(sb);
    throw;
  }
  publish(sb);
  stats_.updates_applied += msgs.size();
  stats_.device += cost;
  // Entries below the older replica's version can never be replayed
  // again (a failed replay rebuilds from installed_rules(), not the
  // log); truncating them keeps the log O(one batch) instead of growing
  // forever under continuous churn.
  const u64 min_version =
      std::min(replicas_[0]->version_, replicas_[1]->version_);
  if (min_version > log_base_) {
    log_.erase(log_.begin(),
               log_.begin() + static_cast<std::ptrdiff_t>(min_version -
                                                          log_base_));
    log_base_ = min_version;
  }
  return cost;
}

hw::UpdateStats RuleProgramPublisher::install_ruleset(
    const ruleset::RuleSet& rules) {
  std::vector<sdn::Message> msgs;
  msgs.reserve(rules.size());
  for (const ruleset::Rule& r : rules) {
    sdn::FlowMod fm;
    fm.command = sdn::FlowMod::Command::kAdd;
    fm.cookie = r.id;
    fm.match = r;
    fm.action = sdn::ActionSpec::decode(r.action.token);
    msgs.emplace_back(fm);
  }
  return apply_batch(msgs);
}

}  // namespace pclass::dataplane
