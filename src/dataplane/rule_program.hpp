/// \file rule_program.hpp
/// Lock-free rule snapshots for the dataplane runtime.
///
/// The paper's device applies controller updates in place; a software
/// runtime with N lookup workers cannot, because the classifier's update
/// path mutates the very memories the lookup path reads. This module
/// separates the two RCU-style:
///
///   * RuleProgram — an immutable, version-stamped classifier snapshot.
///     Workers acquire the current program once per batch (one atomic
///     shared-pointer load) and classify against it with zero locks.
///   * RuleProgramPublisher — the single-writer update side. It keeps
///     two replicas of the device and an ordered update log; an update
///     is applied to the standby replica (after waiting for old readers
///     to drain off it), the replica is stamped with the log position as
///     its version, and published with one atomic pointer swap.
///
/// The standby first catches up on the updates the published replica
/// absorbed since the standby was last published, by replaying them
/// from the log. A catch-up at least as long as the published replica's
/// rule count, and longer than a snapshot's record of updates (at
/// set-up, the whole install), copies the published replica into the
/// standby's storage instead, and so does the restore after a failed
/// apply: a copy writes each block once, where a replay re-derives every
/// label and engine entry.
///
/// Guarantees readers rely on (and tests assert):
///   * no torn state — a published program is never mutated again until
///     every reader reference to it is gone;
///   * monotonic versions — acquire() observes non-decreasing versions,
///     and version v contains exactly the first v updates of the log.
///
/// A snapshot also carries the last updates before its version, so a
/// worker holding per-flow state made at an older version (its flow
/// cache) can drop only what those updates change, without touching
/// the writer side.
///
/// The module also holds the one judge of every verdict:
/// baseline::LinearSearch over the rules a device holds. The paper's
/// phase 4 returns the highest-priority matching rule and its action, so
/// a verdict agrees only when it and the oracle both miss, or both hit
/// with the same rule id, priority and action token. SnapshotOracle
/// judges against one rule set (a caller's expected set, or a device's
/// installed rules); VersionedOracle judges captured verdicts, each
/// against the rules of the snapshot version it was stamped with.
#pragma once

#include <array>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "baseline/linear_search.hpp"
#include "core/classifier.hpp"
#include "dataplane/stats.hpp"
#include "net/trace.hpp"
#include "sdn/southbound.hpp"
#include "telemetry/counters.hpp"
#include "telemetry/publish_clock.hpp"

namespace pclass::dataplane {

/// An immutable classification program: one frozen device replica plus
/// the update-log position it corresponds to.
class RuleProgram {
 public:
  explicit RuleProgram(const core::ClassifierConfig& cfg) : clf_(cfg) {}

  /// Become a copy of \p o, device, version and recorded updates alike,
  /// in this replica's storage (core::ConfigurableClassifier::operator=).
  RuleProgram& operator=(const RuleProgram& o) = default;

  /// Number of log updates folded into this snapshot (monotonic).
  [[nodiscard]] u64 version() const { return version_; }
  [[nodiscard]] usize rule_count() const { return clf_.rule_count(); }

  /// The frozen device. Const lookups on it are thread-safe; the
  /// publisher only mutates a replica while it is unpublished and
  /// reader-free.
  [[nodiscard]] const core::ConfigurableClassifier& classifier() const {
    return clf_;
  }

  /// The updates that took version \p from to version(), in log order,
  /// or nullopt when this snapshot does not carry all of them. Each
  /// replay appends what it replayed, so a snapshot carries the last
  /// (at most kMaxRecordedUpdates) updates before its version; a replica
  /// levelled by a copy of the published one (a long catch-up, or the
  /// restore after a failed apply) carries that replica's record. A
  /// snapshot whose combine mode is not exact
  /// carries none: a first-label verdict can change under an update that
  /// neither matches its packet nor names its rule.
  [[nodiscard]] std::optional<std::span<const sdn::Message>> updates_since(
      u64 from) const {
    if (from < replayed_from_ || from > version_) return std::nullopt;
    return std::span<const sdn::Message>(replayed_).subspan(
        from - replayed_from_);
  }

  /// Most updates a snapshot records for updates_since(); a worker
  /// further behind flushes instead of scanning once per update. The
  /// largest gaps measured were 33-64 versions on the update-storm
  /// smoke runs, 17-32 at full scale and 1 on perfbench churn, so no
  /// measured catch-up falls back. A cap of 8 (50-70 flushes per storm
  /// run) and one of 512 gave storm throughput within run-to-run noise
  /// of 64. The cap bounds a catch-up at 64 scans of a 4096-line cache:
  /// ~50 us for aimed /32 adds and deletes (~0.8 us a scan), ~0.3 ms if
  /// every add has both addresses wild (~4.3 us a scan, every block
  /// tested), well below the refills after flushing a full cache of hot
  /// lines (4096 lookups of ~1.7 us, ~7 ms).
  static constexpr usize kMaxRecordedUpdates = 64;

 private:
  friend class RuleProgramPublisher;

  core::ConfigurableClassifier clf_;
  u64 version_ = 0;
  /// The updates from version replayed_from_ to version_ (empty, with
  /// replayed_from_ == version_, when none are recorded).
  std::vector<sdn::Message> replayed_;
  u64 replayed_from_ = 0;
};

/// Counters of the publisher's write side (see fill_counters).
struct PublisherStats {
  u64 updates_applied = 0;   ///< log entries accepted (once per update)
  u64 publishes = 0;         ///< snapshot swaps
  u64 grace_spins = 0;       ///< yields spent waiting for readers to drain
  /// Cumulative modelled device cost, charged once per accepted update
  /// (the standby's catch-up re-application is bookkeeping, not cost).
  hw::UpdateStats device;
  /// Standbys levelled by copying the published replica instead of
  /// replaying the log: a long catch-up, or a restore after a failed
  /// apply.
  u64 standby_copies = 0;
};

/// Single-writer, many-reader snapshot publisher (RCU by shared_ptr:
/// the reference count of the retired snapshot *is* the grace period).
/// As an sdn::UpdateSink it is what a Controller programs.
class RuleProgramPublisher : public sdn::UpdateSink {
 public:
  explicit RuleProgramPublisher(core::ClassifierConfig cfg = {});

  // ---- read side (lock-free, any thread) ----

  /// The current program. Hold it for one batch, then drop it — a
  /// long-lived reference stalls the writer's grace period.
  [[nodiscard]] std::shared_ptr<const RuleProgram> acquire() const {
    return current_.load(std::memory_order_acquire);
  }

  /// Version of the currently published program.
  [[nodiscard]] u64 version() const {
    return published_version_.load(std::memory_order_acquire);
  }

  // ---- write side (serialized; callable from any one thread at a time) ----

  /// Apply one southbound message and publish a new snapshot.
  /// \throws whatever the classifier's update path throws; the log and
  ///         both replicas are restored to the pre-call state.
  hw::UpdateStats apply(const sdn::Message& msg);

  /// sdn::UpdateSink: a Controller broadcast lands here, one publish
  /// per broadcast.
  hw::UpdateStats handle(std::span<const sdn::Message> msgs) override {
    return apply_batch(msgs);
  }

  /// Apply a batch of messages and publish *once* (update coalescing —
  /// the off-hot-path build the paper's controller side suggests).
  hw::UpdateStats apply_batch(std::span<const sdn::Message> msgs);

  /// Fault-injection hook, invoked under the writer lock inside every
  /// apply_batch's try block (after the log insert, before the replay)
  /// so a throw exercises the real all-or-nothing restore path. The
  /// chaos plane points this at FaultInjector::on_publisher_apply.
  /// Not thread-safe against concurrent applies — set before writers
  /// start. nullptr (default) = no hook.
  void set_fault_hook(std::function<void()> hook) {
    fault_hook_ = std::move(hook);
  }

  /// Convenience: install a whole rule set as one coalesced publish.
  hw::UpdateStats install_ruleset(const ruleset::RuleSet& rules);

  /// Unsynchronised; a live reader uses fill_counters().
  [[nodiscard]] const PublisherStats& stats() const { return stats_; }
  [[nodiscard]] const core::ClassifierConfig& config() const { return cfg_; }

  /// The publisher rows (telemetry/counters.hpp) into \p out, read
  /// under the writer lock: race-free against concurrent applies.
  void fill_counters(telemetry::PublisherCounterSet& out) const {
    using telemetry::PublisherCounter;
    std::lock_guard<std::mutex> lk(writer_mu_);
    const RuleProgram& cur = *replicas_[published_slot_];
    out.set(PublisherCounter::version, cur.version_);
    out.set(PublisherCounter::rules, cur.rule_count());
    out.set(PublisherCounter::updates_applied, stats_.updates_applied);
    out.set(PublisherCounter::publishes, stats_.publishes);
    out.set(PublisherCounter::grace_spins, stats_.grace_spins);
    out.set(PublisherCounter::standby_copies, stats_.standby_copies);
  }

  /// Version -> publish-timestamp table (telemetry): note()d just
  /// before every snapshot swap, so workers can measure how long a
  /// published version took to become visible to their lookups.
  [[nodiscard]] const telemetry::PublishClock& publish_clock() const {
    return publish_clock_;
  }

 private:
  /// The unpublished replica, after waiting for readers to drain off it.
  [[nodiscard]] std::shared_ptr<RuleProgram>& standby();

  /// Bring \p p to the log head and append the replayed entries to its
  /// recorded updates; only entries >= \p charge_from (the published
  /// version) count toward the returned cost (catch-up re-applications
  /// are free). A catch-up longer than kMaxRecordedUpdates and at least
  /// as long as the published rule count is a copy_published() instead.
  hw::UpdateStats replay(RuleProgram& p, u64 charge_from);

  /// Publish \p next (stamped at the current log head) with one swap.
  void publish(const std::shared_ptr<RuleProgram>& next);

  /// Make the standby \p p a copy of the published replica: version,
  /// live configuration (a ConfigMod may have switched the IP algorithm)
  /// and recorded updates included. Levels a far-behind standby, and
  /// restores one a failed replay left in an unknown state.
  void copy_published(RuleProgram& p);

  core::ClassifierConfig cfg_;
  mutable std::mutex writer_mu_;
  /// Tail of the update log: entry k is update number log_base_ + k.
  /// The prefix both replicas have absorbed is truncated after each
  /// publish, so the log holds at most one in-flight batch.
  std::vector<sdn::Message> log_;
  u64 log_base_ = 0;
  std::array<std::shared_ptr<RuleProgram>, 2> replicas_;
  usize published_slot_ = 0;
  std::atomic<std::shared_ptr<const RuleProgram>> current_;
  std::atomic<u64> published_version_{0};
  PublisherStats stats_;
  telemetry::PublishClock publish_clock_;
  std::function<void()> fault_hook_;  ///< see set_fault_hook
};

/// The rules installed in \p clf, added verbatim: the installed
/// priorities are authoritative (baseline::LinearSearch orders by them
/// itself), so no back-fill may run.
[[nodiscard]] ruleset::RuleSet installed_ruleset(
    const core::ConfigurableClassifier& clf);

/// A verdict: the matched rule's entry, or nullopt on a miss. A verdict
/// agrees with the oracle's iff the two are equal: both miss, or both
/// hit with the same rule id, priority and action token.
using Verdict = std::optional<core::RuleEntry>;

/// Tally of judged verdicts.
struct OracleCheck {
  usize checked = 0;         ///< verdicts judged
  usize mismatches = 0;      ///< verdicts that disagree with the oracle
  usize oracle_matched = 0;  ///< judged headers the oracle matches
  /// The first disagreement (version, header, got, want); empty if none.
  std::string first_mismatch;

  [[nodiscard]] bool ok() const { return mismatches == 0; }
};

/// LinearSearch over one rule set.
class SnapshotOracle {
 public:
  explicit SnapshotOracle(const ruleset::RuleSet& rules) : oracle_(rules) {}

  /// Judge \p got as the verdict for header \p h into \p c; \p version,
  /// when given, names the snapshot in a disagreement. True if it agreed.
  bool judge(const net::FiveTuple& h, const Verdict& got, OracleCheck& c,
             std::optional<u64> version = std::nullopt) const;

  /// Re-classify every \p trace header with \p clf and judge it. Exact
  /// only in CombineMode::kCrossProduct.
  [[nodiscard]] OracleCheck check(const core::ConfigurableClassifier& clf,
                                  const net::Trace& trace) const;

 private:
  baseline::LinearSearch oracle_;
};

/// \p clf re-classifying \p trace, judged against its own installed
/// rules.
[[nodiscard]] OracleCheck check_against_oracle(
    const core::ConfigurableClassifier& clf, const net::Trace& trace);

/// Version -> oracle over exactly the rules installed at that published
/// version. One writer thread record()s; judging starts once it is done
/// (no locking). Oracles build lazily: most versions see few verdicts.
class VersionedOracle {
 public:
  /// Record \p pub's current snapshot: after the install and after
  /// every publish.
  void record(const RuleProgramPublisher& pub);

  /// Judge \p cv at its stamped version. A verdict stamped with a
  /// never-recorded version (a torn or fabricated snapshot) or carrying
  /// a parse error is a mismatch.
  bool judge(const CapturedVerdict& cv);
  void judge(std::span<const CapturedVerdict> stream) {
    for (const CapturedVerdict& cv : stream) judge(cv);
  }

  [[nodiscard]] const OracleCheck& result() const { return check_; }

 private:
  std::map<u64, ruleset::RuleSet> rules_;
  std::map<u64, SnapshotOracle> oracles_;
  OracleCheck check_;
};

}  // namespace pclass::dataplane
