#include "dataplane/rule_program.hpp"

#include <algorithm>
#include <thread>

#include "telemetry/trace_ring.hpp"

namespace pclass::dataplane {

ruleset::RuleSet installed_ruleset(const core::ConfigurableClassifier& clf) {
  ruleset::RuleSet rules("installed");
  for (const ruleset::Rule& rule : clf.installed_rules()) {
    rules.add_verbatim(rule);
  }
  return rules;
}

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
  // same messages applied once to one classifier. Only entries >=
  // charge_from (this call's batch) contribute to the returned cost.
  // A catch-up as long as the published replica's rules re-derives what
  // that replica holds, so it is copied instead; a shorter one (steady
  // churn's one or two entries) is replayed. charge_from is the
  // published version, which the standby never passes.
  const u64 behind = charge_from - p.version_;
  if (behind > RuleProgram::kMaxRecordedUpdates &&
      behind >= replicas_[published_slot_]->rule_count()) {
    copy_published(p);
  }
  hw::UpdateStats cost;
  const u64 from = p.version_;
  while (p.version_ < log_base_ + log_.size()) {
    const hw::UpdateStats c =
        sdn::apply_message(p.clf_, log_[p.version_ - log_base_]);
    if (p.version_ >= charge_from) {
      cost += c;
    }
    ++p.version_;
  }
  if (p.clf_.combine_mode() != core::CombineMode::kCrossProduct) {
    p.replayed_.clear();
  } else {
    // p.replayed_ ends at `from`, this replica's previous version:
    // extend it by this replay, keeping the newest entries only (after a
    // bulk install, the next catch-up replay is long).
    const auto keep = static_cast<std::ptrdiff_t>(std::min<u64>(
        p.version_ - from, RuleProgram::kMaxRecordedUpdates));
    p.replayed_.insert(p.replayed_.end(), log_.end() - keep, log_.end());
    const usize excess =
        p.replayed_.size() -
        std::min(p.replayed_.size(), RuleProgram::kMaxRecordedUpdates);
    p.replayed_.erase(p.replayed_.begin(),
                      p.replayed_.begin() +
                          static_cast<std::ptrdiff_t>(excess));
  }
  p.replayed_from_ = p.version_ - p.replayed_.size();
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

void RuleProgramPublisher::copy_published(RuleProgram& p) {
  // The published replica is at the log head before the batch in
  // flight: the version a catch-up or a restore levels to.
  p = *replicas_[published_slot_];
  ++stats_.standby_copies;
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
    copy_published(*sb);
    throw;
  }
  publish(sb);
  stats_.updates_applied += msgs.size();
  stats_.device += cost;
  // Entries below the older replica's version can never be replayed
  // again (a failed replay restores the standby by a copy, not from the
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
    msgs.emplace_back(
        sdn::FlowMod::add(r, sdn::ActionSpec::decode(r.action.token)));
  }
  return apply_batch(msgs);
}

namespace {

/// The oracle's verdict: \p want's entry, or nullopt on a miss.
Verdict verdict_of(const ruleset::Rule* want) {
  if (want == nullptr) return std::nullopt;
  return core::RuleEntry{want->id, want->priority, want->action.token};
}

std::string to_string(const Verdict& v) {
  if (!v) return "miss";
  return "rule " + std::to_string(v->rule.value) + " (priority " +
         std::to_string(v->priority) + ", action " +
         std::to_string(v->action) + ")";
}

/// "version V, header H: " (no version for a snapshot check), the
/// prefix of a disagreement's name.
std::string where(std::optional<u64> version, const net::FiveTuple& h) {
  return (version ? "version " + std::to_string(*version) + ", " : "") +
         "header " + net::to_string(h) + ": ";
}

}  // namespace

bool SnapshotOracle::judge(const net::FiveTuple& h, const Verdict& got,
                           OracleCheck& c, std::optional<u64> version) const {
  const Verdict want = verdict_of(oracle_.classify(h, nullptr));
  ++c.checked;
  if (want) ++c.oracle_matched;
  if (got == want) return true;
  if (c.mismatches++ == 0) {
    c.first_mismatch = where(version, h) + "got " + to_string(got) +
                       ", want " + to_string(want);
  }
  return false;
}

OracleCheck SnapshotOracle::check(const core::ConfigurableClassifier& clf,
                                  const net::Trace& trace) const {
  OracleCheck c;
  for (const auto& e : trace) judge(e.header, clf.classify(e.header).match, c);
  return c;
}

OracleCheck check_against_oracle(const core::ConfigurableClassifier& clf,
                                 const net::Trace& trace) {
  return SnapshotOracle(installed_ruleset(clf)).check(clf, trace);
}

void VersionedOracle::record(const RuleProgramPublisher& pub) {
  const std::shared_ptr<const RuleProgram> prog = pub.acquire();
  rules_.insert_or_assign(prog->version(),
                          installed_ruleset(prog->classifier()));
}

bool VersionedOracle::judge(const CapturedVerdict& cv) {
  const char* fault = cv.parse_error ? "parse error" : nullptr;
  auto built = oracles_.find(cv.version);
  if (fault == nullptr && built == oracles_.end()) {
    const auto rules = rules_.find(cv.version);
    if (rules == rules_.end()) fault = "version never published";
    else built = oracles_.try_emplace(cv.version, rules->second).first;
  }
  if (fault == nullptr) {
    return built->second.judge(cv.tuple, cv.match, check_, cv.version);
  }
  ++check_.checked;
  if (check_.mismatches++ == 0) {
    check_.first_mismatch = where(cv.version, cv.tuple) + fault;
  }
  return false;
}

}  // namespace pclass::dataplane
