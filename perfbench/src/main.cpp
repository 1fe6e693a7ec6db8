/// \file main.cpp
/// perfbench: a one-process, one-thread, closed-loop benchmark of the
/// packet pipeline and the update path (see perfbench/README.md).
///
///   perfbench --workload acl10k-zipf|acl10k-thrash|acl10k-churn
///             [--seed N] [--seconds S] [--trace 0|1]
///             [--out DIR] [--inputs DIR] [--inject-mismatch]
///
/// It builds the element chain PacketSource -> Parser -> FlowCacheElement
/// -> ClassifierElement -> ActionSink over a RuleProgramPublisher and
/// drives it batch by batch from this thread; updates arrive as control
/// lines (tokenize + parse_rule_command, then RuleProgramPublisher::apply)
/// in the same loop. A second leg runs the same pool through a
/// dataplane::Engine with one worker, supervisor and telemetry on.
/// Prints a report, then one JSON result line; exits 1 on any verdict,
/// update or engine mismatch and 2 on a usage or setup error.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "baseline/linear_search.hpp"
#include "control/protocol.hpp"
#include "core/classifier.hpp"
#include "dataplane/elements.hpp"
#include "dataplane/engine.hpp"
#include "dataplane/rule_program.hpp"
#include "harness.hpp"
#include "net/packet.hpp"
#include "net/trace.hpp"
#include "telemetry/trace_ring.hpp"
#include "workload/binio.hpp"
#include "workload/profile.hpp"
#include "workload/ruleset_synth.hpp"
#include "workload/trace_synth.hpp"

namespace {

using namespace pclass;
namespace pb = perfbench;
namespace fs = std::filesystem;
using pb::Layer;
using pb::Span;
using telemetry::steady_now_ns;

// ---- workloads --------------------------------------------------------------

constexpr usize kRules = 10'000;
constexpr usize kBatch = 32;
constexpr u32 kCacheLines = 4096;
constexpr u32 kChurnFirstId = 60'000;  // above every synthesized rule id
constexpr usize kUpdateLines = 2048;   // replayed cyclically (whole pairs)
constexpr u64 kDefaultSeed = 1;        // seed 2 is kept for confirming claims
/// The ruleset is one fixed draw (the paper's 10k working point); the
/// workload seed draws the traffic and the update stream over it. With
/// a seed-drawn ruleset, the structure of each draw moved throughput by
/// ~25% between seeds, far more than any change worth measuring.
constexpr u64 kRulesetSeed = 2026;
constexpr u64 kTrafficDraws = 4;
/// Updates an untraced leg must reach before it may stop, so the
/// visibility p99 has at least ten samples beyond it.
constexpr u64 kMinUpdates = 1000;
/// Batches between two updates wherever updates are sent.
constexpr usize kUpdateEvery = 16;
/// Rounds a run is split into, each on a fresh chain.
constexpr usize kRounds = 4;
/// Set-ups timed at the end of every round, so that `setup_s` samples
/// the host over the whole run rather than at its start only.
constexpr usize kSetupsPerRound = 3;
/// Churn rules each match one of this many of the pool's heaviest flows.
constexpr usize kTargetFlows = 8;

enum class Kind { kZipf, kThrash, kChurn };

struct WorkloadSpec {
  const char* name;
  Kind kind;
  usize pool_packets;  ///< a multiple of kBatch: passes align with batches
};

constexpr std::array<WorkloadSpec, 3> kWorkloads = {{
    {"acl10k-zipf", Kind::kZipf, 131'072},
    {"acl10k-thrash", Kind::kThrash, 32'768},
    {"acl10k-churn", Kind::kChurn, 65'536},
}};

struct Options {
  const WorkloadSpec* spec = nullptr;
  u64 seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench-out";
  std::string inputs_dir;  ///< default: <out_dir>/inputs
  bool inject_mismatch = false;
};

// ---- inputs -----------------------------------------------------------------

std::string render_prefix(const ruleset::IpPrefix& p) {
  if (p.length == 0) return "*";
  std::ostringstream os;
  os << (p.value >> 24) << '.' << ((p.value >> 16) & 0xFF) << '.'
     << ((p.value >> 8) & 0xFF) << '.' << (p.value & 0xFF) << '/'
     << unsigned{p.length};
  return os.str();
}

std::string render_ports(const ruleset::PortRange& r) {
  if (r.is_wildcard()) return "*";
  if (r.is_exact()) return std::to_string(r.lo);
  return std::to_string(r.lo) + "-" + std::to_string(r.hi);
}

std::string render_action(const sdn::ActionSpec& a) {
  switch (a.kind) {
    case sdn::ActionSpec::Kind::kDrop: return "drop";
    case sdn::ActionSpec::Kind::kOutput: return "out:" + std::to_string(a.arg);
    case sdn::ActionSpec::Kind::kGroup: return "group:" + std::to_string(a.arg);
  }
  return "drop";
}

/// The control-socket request that carries \p fm (docs/CONTROL.md).
std::string render_request(const sdn::FlowMod& fm) {
  if (fm.command == sdn::FlowMod::Command::kDelete) {
    return "write rule remove " + std::to_string(fm.cookie.value);
  }
  const ruleset::Rule& m = fm.match;
  return "write rule add " + std::to_string(fm.cookie.value) + " " +
         std::to_string(m.priority) + " " + render_prefix(m.src_ip) + " " +
         render_prefix(m.dst_ip) + " " + render_ports(m.src_port) + " " +
         render_ports(m.dst_port) + " " +
         (m.proto.wildcard ? std::string("*")
                           : std::to_string(unsigned{m.proto.value})) +
         " " + render_action(fm.action);
}

/// tokenize + parse_rule_command, as the control plane's `write rule`
/// handler does. \throws ParseError.
sdn::FlowMod parse_request(const std::string& line) {
  const std::vector<std::string> tok = control::tokenize(line);
  if (tok.size() < 2 || tok[0] != "write" || tok[1] != "rule") {
    throw ParseError("not a `write rule` request: " + line);
  }
  return std::get<sdn::FlowMod>(
      control::parse_rule_command(std::span(tok).subspan(2)));
}

struct Inputs {
  ruleset::RuleSet rules{"acl10k"};
  net::Trace trace;
  std::vector<std::string> requests;  ///< control lines, whole add/remove pairs
  u64 digest = 0;
};

/// Point every add of \p storm at one of the pool's kTargetFlows heaviest
/// flows (its exact source, destination, destination port and protocol),
/// so the churn rules change verdicts the oracle samples: a verdict
/// served from a stale flow cache, probe memo or snapshot then disagrees
/// with the oracle at its rule version. Flows are passed over when a base
/// rule has the same match part (the add would be refused) or when their
/// base verdict is a priority-0 rule (a churn rule, also priority 0 but
/// with a higher id, would lose that tie).
void aim_at_heavy_flows(workload::UpdateStorm& storm, const net::Trace& trace,
                        const ruleset::RuleSet& rules) {
  std::map<net::FiveTuple, u64> counts;
  for (usize i = 0; i < trace.size(); ++i) ++counts[trace[i].header];
  std::vector<std::pair<u64, net::FiveTuple>> flows;
  flows.reserve(counts.size());
  for (const auto& [tuple, n] : counts) flows.emplace_back(n, tuple);
  std::stable_sort(
      flows.begin(), flows.end(),
      [](const auto& a, const auto& b) { return a.first > b.first; });
  const baseline::LinearSearch base(rules);
  std::unordered_set<u64> taken;
  for (const ruleset::Rule& r : rules) {
    taken.insert(ruleset::match_fingerprint(r));
  }
  std::vector<ruleset::Rule> targets;
  for (const auto& [n, t] : flows) {
    if (targets.size() == kTargetFlows) break;
    // The pool carries raw packets: the rule must match what the Parser
    // reads back (a protocol without ports reads as port 0).
    if (net::parse_five_tuple(net::make_packet(t).bytes) != t) continue;
    ruleset::Rule m;
    m.src_ip = ruleset::IpPrefix::make(t.src_ip, 32);
    m.dst_ip = ruleset::IpPrefix::make(t.dst_ip, 32);
    m.src_port = ruleset::PortRange::wildcard();
    m.dst_port = ruleset::PortRange::exact(t.dst_port);
    m.proto = ruleset::ProtoMatch::exact(t.protocol);
    const ruleset::Rule* r = base.classify(t, nullptr);
    if ((r == nullptr || r->priority > 0) &&
        !taken.contains(ruleset::match_fingerprint(m))) {
      targets.push_back(m);
    }
  }
  if (targets.empty()) throw Error("no pool flow a churn rule can win");
  usize adds = 0;
  for (sdn::Message& msg : storm.schedule) {
    sdn::FlowMod& fm = std::get<sdn::FlowMod>(msg);
    if (fm.command != sdn::FlowMod::Command::kAdd) continue;
    const ruleset::Rule& m = targets[adds++ % targets.size()];
    fm.match.src_ip = m.src_ip;
    fm.match.dst_ip = m.dst_ip;
    fm.match.src_port = m.src_port;
    fm.match.dst_port = m.dst_port;
    fm.match.proto = m.proto;
  }
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) throw Error("cannot read " + p.string());
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Synthesize the workload's inputs from \p seed into PCR1/PCT1 files
/// plus a text file of control requests, unless they already exist; then
/// load them back from those files. Pointing two builds at one inputs
/// directory replays byte-identical inputs.
Inputs load_inputs(const WorkloadSpec& spec, u64 seed, const fs::path& dir) {
  const std::string stem = std::string(spec.name) + "-s" + std::to_string(seed);
  const fs::path rules_path = dir / (stem + ".pcr");
  const fs::path trace_path = dir / (stem + ".pct");
  const fs::path requests_path = dir / (stem + ".requests");
  if (!fs::exists(rules_path) || !fs::exists(trace_path) ||
      !fs::exists(requests_path)) {
    fs::create_directories(dir);
    const ruleset::RuleSet rules = workload::synthesize(
        workload::RulesetProfile::acl(kRules, kRulesetSeed));
    net::Trace trace;
    if (spec.kind == Kind::kThrash) {
      // One flow per packet slot: every flow recurs exactly one pool
      // length later, far beyond the cache's kCacheLines lines.
      trace = workload::make_cache_thrash_trace(
          rules, spec.pool_packets, spec.pool_packets, seed ^ 0x7447);
    } else {
      // Zipf traffic is dominated by its few heaviest flows, whose lookup
      // cost varies from draw to draw; the pool chains kTrafficDraws
      // independent draws so one seed's head flows do not set the run.
      for (u64 d = 0; d < kTrafficDraws; ++d) {
        const usize n = spec.pool_packets / kTrafficDraws;
        const u64 s = seed * kTrafficDraws + d;
        const workload::TraceProfile profile =
            spec.kind == Kind::kZipf
                ? workload::TraceProfile::zipf_heavy(n, s ^ 0x21BF)
                : workload::TraceProfile::standard(n, s ^ 0xABCD);
        for (const net::TraceEntry& e :
             workload::TraceSynthesizer(rules, profile).generate()) {
          trace.add(e);
        }
      }
    }
    workload::UpdateStorm storm = workload::make_update_storm(
        rules, kUpdateLines, kChurnFirstId, seed ^ 0x5707);
    aim_at_heavy_flows(storm, trace, rules);
    std::ofstream os(requests_path, std::ios::binary);
    for (const sdn::Message& m : storm.schedule) {
      os << render_request(std::get<sdn::FlowMod>(m)) << '\n';
    }
    if (!os) throw Error("cannot write " + requests_path.string());
    workload::binio::save_ruleset_file(rules_path.string(), rules);
    workload::binio::save_trace_file(trace_path.string(), trace);
  }

  Inputs in;
  const std::string rules_bytes = read_file(rules_path);
  const std::string trace_bytes = read_file(trace_path);
  const std::string requests_bytes = read_file(requests_path);
  in.digest = pb::fnv1a64(requests_bytes,
                          pb::fnv1a64(trace_bytes, pb::fnv1a64(rules_bytes)));
  {
    std::istringstream is(rules_bytes);
    in.rules = workload::binio::load_ruleset(is);
  }
  {
    std::istringstream is(trace_bytes);
    in.trace = net::Trace::read_binary(is);
  }
  std::istringstream ls(requests_bytes);
  for (std::string line; std::getline(ls, line);) {
    if (!line.empty()) in.requests.push_back(line);
  }
  if (in.trace.size() != spec.pool_packets || in.requests.empty() ||
      in.requests.size() % 2 != 0) {
    throw Error("inputs in " + dir.string() + " do not fit workload " +
                spec.name);
  }
  return in;
}

core::ClassifierConfig device_config(const ruleset::RuleSet& rules) {
  // As pclass_serve ships it: headroom for control-socket adds, exact
  // (cross-product) combine, every other knob at its default.
  core::ClassifierConfig cfg =
      core::ClassifierConfig::for_scale(rules.size() + 1024);
  cfg.combine_mode = core::CombineMode::kCrossProduct;
  return cfg;
}

// ---- host calibration -------------------------------------------------------

/// A fixed reference loop written here, not in the library: its ns per
/// iteration tracks host speed, so drift between runs can be told apart
/// from a change in the program. Best of three.
double calibrate_ns() {
  std::vector<u32> table(4096, 0);
  u64 x = 0x9E3779B97F4A7C15ull;
  double best = 1e300;
  constexpr u64 kIters = u64{1} << 21;
  for (int rep = 0; rep < 3; ++rep) {
    const u64 t0 = steady_now_ns();
    for (u64 i = 0; i < kIters; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      table[x & 4095] += static_cast<u32>(x >> 32);
    }
    const u64 t1 = steady_now_ns();
    best = std::min(best, static_cast<double>(t1 - t0) / kIters);
  }
  u64 sum = 0;
  for (const u32 v : table) sum += v;
  if (sum == 42) std::cerr << "";  // keeps the loop's result observable
  return best;
}

// ---- the element chain ------------------------------------------------------

/// The five elements an Engine worker wires, left unconnected so this
/// thread calls each push_batch itself (and, traced, times each one).
struct Chain {
  Chain(dataplane::TrafficPool* pool,
        const dataplane::RuleProgramPublisher* programs)
      : source(pool, /*loop=*/true),
        cache(programs, kCacheLines),
        classifier(programs, &cache) {}

  dataplane::PacketSource source;
  dataplane::Parser parser;
  dataplane::FlowCacheElement cache;
  dataplane::ClassifierElement classifier;
  dataplane::ActionSink sink;
};

/// The chain's running totals; legs report differences of two snapshots.
struct Counters {
  u64 packets = 0;
  u64 cache_hits = 0;
  u64 cache_misses = 0;
  u64 cache_flushes = 0;
  u64 lookups = 0;
  u64 memo_hits = 0;
  u64 memo_invalidations = 0;
  std::array<u64, core::kNumBatchPaths> paths{};

  static Counters of(const Chain& c) {
    Counters k;
    k.packets = c.sink.packets();
    k.cache_hits = c.cache.stats().hits;
    k.cache_misses = c.cache.stats().misses;
    k.cache_flushes = c.cache.stats().invalidations;
    k.lookups = c.classifier.lookups();
    k.memo_hits = c.classifier.probe_memo_hits();
    k.memo_invalidations = c.classifier.probe_memo_invalidations();
    for (usize p = 0; p < core::kNumBatchPaths; ++p) {
      k.paths[p] = c.classifier.path_batches(static_cast<core::BatchPath>(p));
    }
    return k;
  }

  /// this += sign * o, field by field.
  Counters& add(const Counters& o, int sign) {
    const auto f = [sign](u64& a, u64 b) { a = sign > 0 ? a + b : a - b; };
    f(packets, o.packets);
    f(cache_hits, o.cache_hits);
    f(cache_misses, o.cache_misses);
    f(cache_flushes, o.cache_flushes);
    f(lookups, o.lookups);
    f(memo_hits, o.memo_hits);
    f(memo_invalidations, o.memo_invalidations);
    for (usize p = 0; p < core::kNumBatchPaths; ++p) f(paths[p], o.paths[p]);
    return *this;
  }
};

/// One packet's verdict, kept for the oracle.
struct Verdict {
  net::FiveTuple tuple{};
  bool matched = false;
  RuleId rule{};
  Priority priority = 0;
  u64 version = 0;
};

/// An update the publisher accepted, for the per-version oracle.
struct AppliedUpdate {
  u64 version = 0;  ///< first rule version that includes it
  sdn::FlowMod fm;
};

/// Packets moved in some wall time; rates are totals over totals, so a
/// host slow phase shifts them in proportion to its share of the run
/// instead of flipping a median between two modes.
struct Rate {
  u64 packets = 0;
  u64 ns = 0;
  [[nodiscard]] double mpps() const {
    return ns == 0 ? 0.0
                   : static_cast<double>(packets) * 1e3 /
                         static_cast<double>(ns);
  }
  Rate& operator+=(const Rate& o) {
    packets += o.packets;
    ns += o.ns;
    return *this;
  }
};

double ratio(u64 num, u64 den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

// ---- one run ----------------------------------------------------------------

/// What one leg of the closed loop measured.
struct LegResult {
  u64 packets = 0;
  u64 wall_ns = 0;
  std::vector<double> batch_us;  ///< source-to-sink wall time per batch
  Counters counters;

  [[nodiscard]] Rate rate() const { return {packets, wall_ns}; }

  void append(const LegResult& o) {
    packets += o.packets;
    wall_ns += o.wall_ns;
    batch_us.insert(batch_us.end(), o.batch_us.begin(), o.batch_us.end());
    counters.add(o.counters, +1);
  }
};

class Run {
 public:
  Run(const Options& opt, const Inputs& in,
      std::unique_ptr<dataplane::RuleProgramPublisher> programs,
      dataplane::TrafficPool pool)
      : opt_(opt),
        in_(in),
        programs_(std::move(programs)),
        pool_(std::move(pool)),
        batch_(kBatch),
        sample_(/*stride=*/64, /*capacity=*/256) {}

  /// Replace the chain with a fresh one (cold flow cache, probe memo and
  /// path controller) and warm it with exactly one pass over the pool,
  /// recording which positions matched: the reference the engine leg is
  /// checked against. Legs split over several fresh chains average over
  /// the path controller's run-to-run choices instead of sampling one.
  void fresh_chain() {
    chain_ = std::make_unique<Chain>(&pool_, programs_.get());
    pool_.reset();
    matched_prefix_.assign(1, 0);
    for (usize b = 0; b < pool_.size() / kBatch; ++b) {
      push_untraced();
      for (usize i = 0; i < batch_.size(); ++i) {
        matched_prefix_.push_back(matched_prefix_.back() +
                                  (batch_.meta(i).matched ? 1 : 0));
      }
    }
  }

  /// Closed loop for \p seconds: one batch at a time, an update before
  /// every \p update_every-th batch (0: none). Stops only between whole
  /// add/remove pairs, and not before \p min_updates updates (unless it
  /// overruns 4x); traced, also before it stores more than \p span_budget
  /// spans.
  template <bool kTraced>
  LegResult leg(double seconds, usize update_every, u64 min_updates,
                usize span_budget = 0) {
    LegResult r;
    const Counters before = Counters::of(*chain_);
    const usize span_limit = spans_.size() + span_budget;
    const u64 t_begin = steady_now_ns();
    const u64 budget_ns = static_cast<u64>(seconds * 1e9);
    const u64 quantum = update_every == 0 ? 1 : 2 * update_every;
    // Spans one quantum can add: six per batch, three per update.
    const usize quantum_spans = 6 * quantum + (update_every == 0 ? 0 : 6);
    u64 batches = 0;
    u64 updates = 0;
    for (;;) {
      u32 cause = pb::kNoParent;
      if (update_every != 0 && batches % update_every == 0) {
        cause = update<kTraced>();
        ++updates;
      }
      const u64 t_start = steady_now_ns();
      const u64 t_end =
          kTraced ? push_traced(t_start, cause) : push_untraced();
      ++batches;
      r.packets += batch_.size();
      r.batch_us.push_back(static_cast<double>(t_end - t_start) / 1e3);
      if (batches % quantum != 0) continue;
      if (kTraced && spans_.size() + quantum_spans > span_limit) break;
      const u64 elapsed = t_end - t_begin;
      const bool enough_updates = update_every == 0 || updates >= min_updates;
      if ((elapsed >= budget_ns && enough_updates) ||
          elapsed >= 4 * budget_ns) {
        break;
      }
    }
    r.wall_ns = steady_now_ns() - t_begin;
    r.counters = Counters::of(*chain_).add(before, -1);
    return r;
  }

  /// A fresh one-worker Engine over the same pool, left to work for
  /// \p seconds; returns the packets it moved and its wall time, from
  /// construction to stop() returning. Loop mode, so the run ends on stop()
  /// within a batch rather than on the supervisor's next watchdog scan.
  /// Its matched count must equal what the pipeline matched on the same
  /// packet positions.
  Rate engine_run(double seconds) {
    // As pclass_serve runs it: telemetry, a 100 ms stats sampler and the
    // supervisor on.
    dataplane::EngineConfig ecfg;
    ecfg.workers = 1;
    ecfg.batch_size = kBatch;
    ecfg.flow_cache_depth = kCacheLines;
    ecfg.loop = true;
    ecfg.telemetry = true;
    ecfg.stats_interval_ms = 100;
    ecfg.supervisor.enabled = true;
    pool_.reset();
    const u64 t0 = steady_now_ns();
    dataplane::Engine engine(ecfg, *programs_);
    engine.start(pool_);
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    const dataplane::EngineReport rep = engine.stop();
    const u64 t1 = steady_now_ns();
    ++tally_.engine_passes;
    const u64 n = pool_.size();
    const u64 want = rep.packets() / n * matched_prefix_[n] +
                     matched_prefix_[rep.packets() % n];
    if (rep.matched() != want || !rep.first_error().empty()) {
      ++tally_.engine_mismatches;
      note_error("engine matched " + std::to_string(rep.matched()) + " of " +
                 std::to_string(rep.packets()) + " packets, the pipeline " +
                 std::to_string(want) + " " + rep.first_error());
    }
    return {rep.packets(), t1 - t0};
  }

  /// Check every sampled verdict against a LinearSearch oracle at the
  /// verdict's rule version: the base rules plus the churn rules live at
  /// that version.
  void check_oracle() {
    const baseline::LinearSearch base(in_.rules);
    std::map<u32, ruleset::Rule> live;  // churn rules by id
    usize next = 0;
    bool flipped = false;
    for (const auto& [index, verdicts] : sample_.kept()) {
      for (Verdict v : verdicts) {
        while (next < applied_.size() && applied_[next].version <= v.version) {
          const sdn::FlowMod& fm = applied_[next].fm;
          if (fm.command == sdn::FlowMod::Command::kAdd) {
            ruleset::Rule r = fm.match;
            r.id = fm.cookie;
            live[fm.cookie.value] = r;
          } else {
            live.erase(fm.cookie.value);
          }
          ++next;
        }
        if (opt_.inject_mismatch && !flipped) {
          v.matched = !v.matched;  // the deliberate wrong verdict
          flipped = true;
        }
        // LinearSearch order over the union: lowest (priority, id) wins.
        const ruleset::Rule* want = base.classify(v.tuple, nullptr);
        for (const auto& [id, r] : live) {
          if (r.matches(v.tuple) &&
              (want == nullptr || r.priority < want->priority ||
               (r.priority == want->priority && r.id < want->id))) {
            want = &r;
          }
        }
        const bool agree = want == nullptr
                               ? !v.matched
                               : v.matched && v.rule == want->id &&
                                     v.priority == want->priority;
        ++tally_.verdicts_checked;
        if (!agree) {
          ++tally_.verdict_mismatches;
          note_error("verdict mismatch at rule version " +
                     std::to_string(v.version));
        }
      }
    }
  }

  void reserve_spans(usize n) { spans_.reserve(n); }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  std::vector<double>& visibility_us() { return visibility_.samples_us(); }
  [[nodiscard]] const pb::ErrorTally& tally() const { return tally_; }
  [[nodiscard]] const std::string& first_error() const { return first_error_; }
  [[nodiscard]] const dataplane::RuleProgramPublisher& programs() const {
    return *programs_;
  }

 private:
  void note_error(const std::string& what) {
    if (first_error_.empty()) first_error_ = what;
  }

  /// One batch through the five elements; returns its end time.
  u64 push_untraced() {
    chain_->source.push_batch(batch_);
    chain_->parser.push_batch(batch_);
    chain_->cache.push_batch(batch_);
    chain_->classifier.push_batch(batch_);
    chain_->sink.push_batch(batch_);
    const u64 t_end = steady_now_ns();
    after_batch(t_end);
    return t_end;
  }

  /// Same, timing each element from \p t_start; \p cause is the span of
  /// the update this batch is the first to follow (kNoParent: none).
  u64 push_traced(u64 t_start, u32 cause) {
    std::array<u64, 6> t{};
    t[0] = t_start;
    chain_->source.push_batch(batch_);
    t[1] = steady_now_ns();
    chain_->parser.push_batch(batch_);
    t[2] = steady_now_ns();
    chain_->cache.push_batch(batch_);
    t[3] = steady_now_ns();
    chain_->classifier.push_batch(batch_);
    t[4] = steady_now_ns();
    chain_->sink.push_batch(batch_);
    t[5] = steady_now_ns();
    const u32 id = static_cast<u32>(batch_index_);
    const u32 parent = static_cast<u32>(spans_.size());
    spans_.push_back({t[0], t[5], id, cause, Layer::kBatch});
    constexpr std::array<Layer, 5> kElems = {Layer::kSource, Layer::kParser,
                                             Layer::kFlowCache,
                                             Layer::kClassifier, Layer::kSink};
    for (usize e = 0; e < kElems.size(); ++e) {
      spans_.push_back({t[e], t[e + 1], id, parent, kElems[e]});
    }
    after_batch(t[5]);
    return t[5];
  }

  void after_batch(u64 t_end) {
    visibility_.on_batch(t_end, batch_.rule_version);
    if (sample_.wants(batch_index_)) {
      std::vector<Verdict> vs;
      vs.reserve(batch_.size());
      for (usize i = 0; i < batch_.size(); ++i) {
        const net::PacketMeta& m = batch_.meta(i);
        vs.push_back({m.tuple.value_or(net::FiveTuple{}), m.matched, m.rule,
                      m.priority, batch_.rule_version});
      }
      sample_.add(batch_index_, std::move(vs));
    }
    ++batch_index_;
  }

  /// Send the next control request: tokenize + parse_rule_command, then
  /// apply. Returns the update span's index (traced) or kNoParent.
  template <bool kTraced>
  u32 update() {
    const std::string& line =
        in_.requests[request_cursor_++ % in_.requests.size()];
    ++tally_.updates_attempted;
    const u64 t0 = steady_now_ns();
    try {
      const sdn::FlowMod fm = parse_request(line);
      const u64 t1 = steady_now_ns();
      programs_->apply(fm);
      const u64 t2 = steady_now_ns();
      const u64 version = programs_->version();
      applied_.push_back({version, fm});
      visibility_.on_update(t0, version);
      if (!kTraced) return pb::kNoParent;
      const u32 id = static_cast<u32>(tally_.updates_attempted);
      const u32 parent = static_cast<u32>(spans_.size());
      spans_.push_back({t0, t2, id, pb::kNoParent, Layer::kUpdate});
      spans_.push_back({t0, t1, id, parent, Layer::kParseRule});
      spans_.push_back({t1, t2, id, parent, Layer::kApply});
      return parent;
    } catch (const std::exception& e) {
      ++tally_.updates_failed;
      note_error("update '" + line + "' failed: " + e.what());
      return pb::kNoParent;
    }
  }

  const Options& opt_;
  const Inputs& in_;
  std::unique_ptr<dataplane::RuleProgramPublisher> programs_;
  dataplane::TrafficPool pool_;
  std::unique_ptr<Chain> chain_;
  net::PacketBatch batch_;
  u64 batch_index_ = 0;
  usize request_cursor_ = 0;
  std::vector<u64> matched_prefix_;  ///< matched packets before position i
  std::vector<AppliedUpdate> applied_;
  pb::VisibilityTracker visibility_;
  pb::StrideSample<std::vector<Verdict>> sample_;
  std::vector<Span> spans_;
  pb::ErrorTally tally_;
  std::string first_error_;
};

// ---- reporting --------------------------------------------------------------

class Report {
 public:
  /// A metric for the result line, echoed on a report line with its
  /// sample count and how it was taken.
  void metric(const std::string& name, double value, const std::string& unit,
              const std::string& note) {
    metrics_.push_back({name, value, unit});
    line(name + " = " + fmt(value) + " " + unit + "  (" + note + ")");
  }

  /// A timing's p50 and p99 as <name>_p50_us / <name>_p99_us, as metrics
  /// or, with \p as_metrics false, on report lines only; the report line
  /// adds n and the highest percentile the sample supports.
  void timing_us(const std::string& name, std::vector<double> samples,
                 bool as_metrics = true) {
    const pb::Summary s = pb::summarize(samples);
    const std::string note =
        "n=" + std::to_string(s.n) + "; highest p with >=10 beyond: p" +
        fmt(s.top_p) + " = " + fmt(s.top_value) +
        (s.p99_supported() ? "" : "; p99 UNSUPPORTED");
    for (const auto& [suffix, value] :
         {std::pair{"_p50_us", s.p50}, std::pair{"_p99_us", s.p99}}) {
      if (as_metrics) {
        metric(name + suffix, value, "us", note);
      } else {
        line(name + suffix + " = " + fmt(value) + " us  (" + note + ")");
      }
    }
  }

  void line(const std::string& text) { std::cout << "  " << text << "\n"; }

  void result(const pb::ErrorTally& t) const {
    std::ostringstream os;
    os << std::setprecision(12) << "{\"correct\": "
       << (t.failed() == 0 ? "true" : "false")
       << ", \"attempted\": " << t.attempted() << ", \"failed\": " << t.failed()
       << ", \"metrics\": {";
    for (usize i = 0; i < metrics_.size(); ++i) {
      os << (i == 0 ? "" : ", ") << '"' << metrics_[i].name
         << "\": {\"value\": " << metrics_[i].value << ", \"unit\": \""
         << metrics_[i].unit << "\"}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
  }

  static std::string fmt(double v) {
    std::ostringstream os;
    os << std::setprecision(6) << v;
    return os.str();
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void write_spans(const std::vector<Span>& spans, const fs::path& path) {
  fs::create_directories(path.parent_path());
  std::ofstream os(path, std::ios::binary);
  os << "layer\tid\tparent\tstart_ns\tend_ns\n";
  const u64 t0 = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) {
    os << pb::layer_name(s.layer) << '\t' << s.id << '\t'
       << (s.parent == pb::kNoParent ? -1 : static_cast<long long>(s.parent))
       << '\t' << s.start_ns - t0 << '\t' << s.end_ns - t0 << '\n';
  }
  if (!os) throw Error("cannot write " + path.string());
}

/// One set-up: a fresh publisher installs the ruleset into both replicas
/// and the traffic pool is built as raw packets. Returns its seconds.
double set_up(const Inputs& in,
              std::unique_ptr<dataplane::RuleProgramPublisher>& programs,
              dataplane::TrafficPool& pool) {
  const u64 t0 = steady_now_ns();
  programs = std::make_unique<dataplane::RuleProgramPublisher>(
      device_config(in.rules));
  programs->install_ruleset(in.rules);
  // An empty batch republishes, which first brings the other replica to
  // the log head: both replicas hold the ruleset before traffic.
  programs->apply_batch({});
  pool = dataplane::TrafficPool::from_trace(in.trace,
                                            /*materialize_packets=*/true);
  return static_cast<double>(steady_now_ns() - t0) / 1e9;
}

/// A set-up whose publisher and pool are dropped, after the timing.
double throwaway_set_up(const Inputs& in) {
  std::unique_ptr<dataplane::RuleProgramPublisher> programs;
  dataplane::TrafficPool pool;
  return set_up(in, programs, pool);
}

void report_paths(Report& rep, const Counters& c, bool as_metrics) {
  const u64 total = c.paths[0] + c.paths[1] + c.paths[2];
  const std::array<const char*, 3> names = {"core.path.scalar_loop_share",
                                            "core.path.phase2_share",
                                            "core.path.phase2_memo_share"};
  const std::string note = "of " + std::to_string(total) + " batches classified";
  for (usize p = 0; p < 3; ++p) {
    const double share = ratio(c.paths[p], total);
    if (as_metrics) {
      rep.metric(names[p], share, "ratio", note);
    } else {
      rep.line(std::string(names[p]) + " = " + Report::fmt(share) + "  (" +
               note + ")");
    }
  }
}

/// The paper's modelled costs, on fixed inputs so they repeat exactly:
/// classify() (path-independent, no flow cache, no memo) over every
/// k-th pool header, then the first kCountedUpdates control requests
/// through a fresh publisher (PublisherStats::device).
void report_hwsim(Report& rep, const Inputs& in) {
  constexpr usize kHeaders = 4096;
  constexpr usize kCountedUpdates = 512;
  dataplane::RuleProgramPublisher programs(device_config(in.rules));
  programs.install_ruleset(in.rules);
  const usize step = std::max<usize>(1, in.trace.size() / kHeaders);
  dataplane::LatencyHistogram cycles;  // ActionSink's histogram type
  u64 accesses = 0;
  u64 probes = 0;
  u64 n = 0;
  {
    // Dropped before the updates below: a held snapshot would stall the
    // publisher's grace period forever.
    const std::shared_ptr<const dataplane::RuleProgram> snap =
        programs.acquire();
    for (usize i = 0; i < in.trace.size(); i += step, ++n) {
      const core::ClassifyResult r =
          snap->classifier().classify(in.trace[i].header);
      cycles.record(r.cycles);
      accesses += r.memory_accesses;
      probes += r.crossproduct_probes;
    }
  }
  const std::string note =
      "classify() over " + std::to_string(n) + " fixed pool headers";
  rep.metric("hwsim.lookup_cycles_p50",
             static_cast<double>(cycles.percentile(50)), "cycles", note);
  rep.metric("hwsim.lookup_cycles_p99",
             static_cast<double>(cycles.percentile(99)), "cycles", note);
  rep.metric("hwsim.memory_accesses_per_pkt", ratio(accesses, n), "count",
             note);
  rep.metric("hwsim.crossproduct_probes_per_lookup", ratio(probes, n), "count",
             note);
  const u64 bus_before = programs.stats().device.cycles;
  const usize updates = std::min(kCountedUpdates, in.requests.size());
  for (usize k = 0; k < updates; ++k) {
    programs.apply(parse_request(in.requests[k]));
  }
  rep.metric("hwsim.update_bus_cycles_per_update",
             ratio(programs.stats().device.cycles - bus_before, updates),
             "cycles",
             "PublisherStats::device over the first " +
                 std::to_string(updates) + " requests");
}

/// ConfigurableClassifier::add_rule / remove_rule on a standalone device
/// (same config, same ruleset), over the first control requests.
void report_device_updates(Report& rep, const Inputs& in) {
  constexpr usize kTimedUpdates = 1024;
  core::ConfigurableClassifier dev(device_config(in.rules));
  dev.add_rules(in.rules);
  std::vector<double> add_us;
  std::vector<double> remove_us;
  const usize updates = std::min(kTimedUpdates, in.requests.size());
  for (usize k = 0; k < updates; ++k) {
    const sdn::FlowMod fm = parse_request(in.requests[k]);
    const bool add = fm.command == sdn::FlowMod::Command::kAdd;
    ruleset::Rule r = fm.match;
    r.id = fm.cookie;
    r.action = ruleset::Action{fm.action.encode()};
    const u64 t0 = steady_now_ns();
    if (add) {
      dev.add_rule(r);
    } else {
      dev.remove_rule(fm.cookie);
    }
    const double us = static_cast<double>(steady_now_ns() - t0) / 1e3;
    (add ? add_us : remove_us).push_back(us);
  }
  const std::string na = "n=" + std::to_string(add_us.size());
  const std::string nr = "n=" + std::to_string(remove_us.size());
  rep.metric("core.update.add_us_p50", pb::median(add_us), "us", na);
  rep.metric("core.update.remove_us_p50", pb::median(remove_us), "us", nr);
}

// ---- the benchmark ----------------------------------------------------------

/// End-to-end metrics (tracing off). The time is split over kRounds
/// rounds, each on a fresh chain and with an Engine run of its own, so
/// every metric pools several path-controller realizations and spreads
/// over the host's drift during the run.
///
/// Update visibility (churn only) goes on report lines, not into the
/// result: see "Update visibility" in perfbench/README.md.
void measure(const Options& opt, const Inputs& in, Run& run, Report& rep,
             std::vector<double> setup_s) {
  const WorkloadSpec& spec = *opt.spec;
  const double round_s = opt.seconds / kRounds;
  const bool churn = spec.kind == Kind::kChurn;
  const usize update_every = churn ? kUpdateEvery : 0;
  LegResult main;
  Rate engine;
  double rss_mb = 0;
  for (usize k = 0; k < kRounds; ++k) {
    run.fresh_chain();
    // The program's own footprint: inputs, both replicas, the pool and a
    // warm chain, before the harness's latency samples grow with speed.
    if (k == 0) rss_mb = peak_rss_mb();
    const double calib = calibrate_ns();
    const LegResult leg =
        run.leg<false>(round_s * 0.65, update_every, kMinUpdates / kRounds);
    main.append(leg);
    const Rate e = run.engine_run(round_s * 0.3);
    engine += e;
    for (usize s = 0; s < kSetupsPerRound; ++s) {
      setup_s.push_back(throwaway_set_up(in));
    }
    rep.line("round " + std::to_string(k) + ": host.calib_ns = " +
             Report::fmt(calib) + ", pipeline Mpps = " +
             Report::fmt(leg.rate().mpps()) + ", engine Mpps = " +
             Report::fmt(e.mpps()) + ", set-up s = " +
             Report::fmt(setup_s.back()));
  }
  run.check_oracle();

  rep.metric("throughput_mpps", main.rate().mpps(), "Mpps",
             std::to_string(main.packets) +
                 " packets / wall time of the pipeline legs");
  rep.metric("engine_mpps", engine.mpps(), "Mpps",
             std::to_string(engine.packets) + " packets / wall time of " +
                 std::to_string(kRounds) + " Engine runs");
  rep.timing_us("latency", main.batch_us);
  if (churn) {
    rep.timing_us("update_visibility", run.visibility_us(),
                  /*as_metrics=*/false);
  }
  const usize setups = setup_s.size();
  rep.metric("setup_s", pb::median(setup_s), "s",
             "median of " + std::to_string(setups) +
                 " set-ups: one at start, " + std::to_string(kSetupsPerRound) +
                 " after each round");
  rep.metric("rss_peak_mb", rss_mb, "MB",
             "getrusage ru_maxrss after set-up and the first warm pass");
  rep.line("core.flow_cache.hit_ratio = " +
           Report::fmt(ratio(main.counters.cache_hits,
                             main.counters.cache_hits +
                                 main.counters.cache_misses)) +
           "  (of packets offered to the cache)");
  report_paths(rep, main.counters, /*as_metrics=*/false);
}

/// Per-layer metrics (the traced run).
void measure_layers(const Options& opt, const Inputs& in, Run& run,
                    Report& rep) {
  const WorkloadSpec& spec = *opt.spec;
  const bool churn = spec.kind == Kind::kChurn;
  const usize update_every = churn ? kUpdateEvery : 0;
  // Each round's chain runs a traced chunk, then an untraced chunk of the
  // same wall time, so host drift and the path controller's choices fall
  // on both sides of trace.overhead_frac. Every round gets an equal share
  // of the span store; a chunk that fills its share ends early, and its
  // untraced partner with it.
  constexpr usize kMaxSpans = 800'000;
  constexpr usize kRoundSpans = kMaxSpans / kRounds;
  run.reserve_spans(kMaxSpans);
  const double round_s = opt.seconds / kRounds;
  const double chunk = round_s * (churn ? 0.75 : 0.55) / 2;
  const usize pipeline_spans = churn ? kRoundSpans : kRoundSpans * 3 / 4;
  Rate plain;
  Rate traced;
  u64 traced_wall = 0;
  Counters c;
  Rate engine;
  for (usize k = 0; k < kRounds; ++k) {
    run.fresh_chain();
    const LegResult t = run.leg<true>(chunk, update_every, 0, pipeline_spans);
    traced += t.rate();
    traced_wall += t.wall_ns;
    c.add(t.counters, +1);
    const double traced_s = static_cast<double>(t.wall_ns) / 1e9;
    plain += run.leg<false>(traced_s, update_every, 0).rate();
    if (!churn) {
      // Every traced run reports every per-layer metric, so the update
      // path's layers are traced here too, at churn's cadence.
      const LegResult u = run.leg<true>(round_s * 0.15, kUpdateEvery, 0,
                                        kRoundSpans - pipeline_spans);
      c.add(u.counters, +1);
      traced_wall += u.wall_ns;
    }
    engine += run.engine_run(round_s * 0.15);
  }
  run.check_oracle();

  const std::vector<Span>& spans = run.spans();
  const std::array<u64, pb::kNumLayers> self = pb::self_times_ns(spans);
  const auto self_ns = [&](Layer l) {
    return static_cast<double>(self[static_cast<usize>(l)]);
  };
  u64 self_sum = 0;
  for (const u64 v : self) self_sum += v;
  u64 parses = 0;
  std::vector<double> apply_us;
  std::vector<double> recovery_us;
  for (const Span& sp : spans) {
    const double us = static_cast<double>(sp.end_ns - sp.start_ns) / 1e3;
    if (sp.layer == Layer::kParseRule) ++parses;
    if (sp.layer == Layer::kApply) apply_us.push_back(us);
    if (sp.layer == Layer::kBatch && sp.parent != pb::kNoParent) {
      recovery_us.push_back(us);  // the first batch after an update
    }
  }
  const double pkts = static_cast<double>(c.packets);
  const std::string per_pkt =
      "self time over " + std::to_string(c.packets) + " traced packets";

  rep.metric("dataplane.source.ns_per_pkt", self_ns(Layer::kSource) / pkts,
             "ns", per_pkt);
  rep.metric("net.parse.ns_per_pkt", self_ns(Layer::kParser) / pkts, "ns",
             per_pkt);
  rep.metric("core.flow_cache.ns_per_pkt", self_ns(Layer::kFlowCache) / pkts,
             "ns", per_pkt);
  rep.metric("core.flow_cache.hit_ratio",
             ratio(c.cache_hits, c.cache_hits + c.cache_misses), "ratio",
             "of packets offered to the cache");
  rep.metric("core.flow_cache.flushes", static_cast<double>(c.cache_flushes),
             "count", "traced legs");
  rep.metric("core.classifier.ns_per_lookup",
             self_ns(Layer::kClassifier) /
                 static_cast<double>(std::max<u64>(c.lookups, 1)),
             "ns",
             "self time over " + std::to_string(c.lookups) +
                 " core.classifier.lookups");
  rep.metric("core.probe_memo.hits_per_lookup",
             ratio(c.memo_hits, c.lookups), "ratio",
             "memo-served Rule Filter probes per classifier lookup");
  rep.metric("core.probe_memo.invalidations",
             static_cast<double>(c.memo_invalidations), "count", "traced legs");
  report_paths(rep, c, /*as_metrics=*/true);
  rep.metric("dataplane.sink.ns_per_pkt", self_ns(Layer::kSink) / pkts, "ns",
             per_pkt);
  rep.metric("dataplane.engine.ns_per_pkt",
             static_cast<double>(engine.ns) /
                 static_cast<double>(std::max<u64>(engine.packets, 1)),
             "ns",
             "wall time / packets over " + std::to_string(kRounds) +
                 " Engine runs");
  rep.metric("control.parse_rule.ns_per_cmd",
             self_ns(Layer::kParseRule) /
                 static_cast<double>(std::max<u64>(parses, 1)),
             "ns",
             "tokenize + parse_rule_command, n=" + std::to_string(parses));
  const pb::Summary a = pb::summarize(apply_us);
  const std::string apply_note = "n=" + std::to_string(a.n) +
                                 (a.p99_supported() ? "" : "; p99 UNSUPPORTED");
  rep.metric("dataplane.publisher.apply_us_p50", a.p50, "us", apply_note);
  rep.metric("dataplane.publisher.apply_us_p99", a.p99, "us", apply_note);
  rep.metric("dataplane.publisher.grace_spins",
             static_cast<double>(run.programs().stats().grace_spins), "count",
             "whole run");
  const usize recoveries = recovery_us.size();
  rep.metric("dataplane.recovery_batch_us_p50", pb::median(recovery_us), "us",
             "n=" + std::to_string(recoveries));
  report_device_updates(rep, in);
  report_hwsim(rep, in);
  rep.metric("trace.overhead_frac", 1.0 - traced.mpps() / plain.mpps(),
             "ratio",
             "1 - traced / untraced Mpps over " + std::to_string(kRounds) +
                 " alternating chunk pairs");
  rep.metric("trace.coverage_frac",
             static_cast<double>(self_sum) / static_cast<double>(traced_wall),
             "ratio", "per-layer self times summed / traced wall time");
  for (usize l = 0; l < pb::kNumLayers; ++l) {
    rep.line("self " + std::string(pb::layer_name(static_cast<Layer>(l))) +
             " = " + Report::fmt(static_cast<double>(self[l]) / 1e6) + " ms");
  }
  const fs::path spans_path =
      fs::path(opt.out_dir) / (std::string("trace-") + spec.name + ".tsv");
  write_spans(spans, spans_path);
  rep.line(std::to_string(spans.size()) + " spans written to " +
           spans_path.string());
}

int run_benchmark(const Options& opt, int cpu) {
  const WorkloadSpec& spec = *opt.spec;
  const fs::path inputs_dir = opt.inputs_dir.empty()
                                  ? fs::path(opt.out_dir) / "inputs"
                                  : fs::path(opt.inputs_dir);
  const Inputs in = load_inputs(spec, opt.seed, inputs_dir);
  const double calib_start = calibrate_ns();

  std::unique_ptr<dataplane::RuleProgramPublisher> programs;
  dataplane::TrafficPool pool;
  const double setup_s = set_up(in, programs, pool);
  Run run(opt, in, std::move(programs), std::move(pool));

  Report rep;
  std::cout << "perfbench " << spec.name << " seed=" << opt.seed
            << " seconds=" << opt.seconds << " trace=" << int{opt.trace}
            << " cpu=" << cpu << "\n";
  std::ostringstream digest;
  digest << std::hex << std::setw(16) << std::setfill('0') << in.digest;
  rep.line("inputs: " + std::to_string(in.rules.size()) + " rules, " +
           std::to_string(in.trace.size()) + " packets, " +
           std::to_string(in.requests.size()) + " update requests; digest " +
           digest.str());

  if (opt.trace) {
    measure_layers(opt, in, run, rep);
  } else {
    measure(opt, in, run, rep, {setup_s});
  }

  const double calib_end = calibrate_ns();
  if (opt.trace) {
    rep.metric("host.calib_ns", (calib_start + calib_end) / 2, "ns",
               "reference loop, mean of start and end");
  }
  rep.line("host.calib_ns start = " + Report::fmt(calib_start) +
           ", end = " + Report::fmt(calib_end));
  const pb::ErrorTally& t = run.tally();
  rep.line("error_rate = " + Report::fmt(t.error_rate()) + "  (" +
           std::to_string(t.failed()) + " failed of " +
           std::to_string(t.attempted()) + ": " +
           std::to_string(t.verdicts_checked) + " verdicts, " +
           std::to_string(t.updates_attempted) + " updates, " +
           std::to_string(t.engine_passes) + " engine runs)");
  if (!run.first_error().empty()) {
    std::cerr << "perfbench: FAILED: " << run.first_error() << "\n";
  }
  rep.result(t);
  return t.failed() == 0 ? 0 : 1;
}

/// Pin this thread, and so every thread it starts, to the lowest CPU it
/// may run on. On a shared two-vCPU host the two CPUs ran the same work
/// ~20% apart, and an unpinned run landed on either, so one run's
/// rounds split into two speed modes. Returns the CPU, or -1 if the
/// affinity could not be read or set.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }
  return -1;
}

int usage() {
  std::cerr << "usage: perfbench --workload acl10k-zipf|acl10k-thrash|"
               "acl10k-churn [--seed N] [--seconds S] [--trace 0|1] "
               "[--out DIR] [--inputs DIR] [--inject-mismatch]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--inject-mismatch") {
      opt.inject_mismatch = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        for (const WorkloadSpec& w : kWorkloads) {
          if (v == w.name) opt.spec = &w;
        }
        if (opt.spec == nullptr) return usage();
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
        if (!(opt.seconds > 0 && opt.seconds <= 600)) return usage();
      } else if (a == "--trace") {
        if (v != "0" && v != "1") return usage();
        opt.trace = v == "1";
      } else if (a == "--out") {
        opt.out_dir = v;
      } else if (a == "--inputs") {
        opt.inputs_dir = v;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (opt.spec == nullptr) return usage();
  try {
    return run_benchmark(opt, pin_to_one_cpu());
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << "\n";
    return 2;
  }
}
