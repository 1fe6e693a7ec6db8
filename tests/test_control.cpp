/// Tests for the live introspection plane (PR 7): control-protocol
/// parsing, the line/DATA response framing over a real loopback socket,
/// robustness against partial/oversized/malformed requests and
/// concurrent clients, the scripted socket-driven update sequence with
/// per-commit oracle checks and socket-to-dataplane visibility
/// latency, streaming subscriptions (decimation, terminal records,
/// disconnect mid-stream), the drain/reconcile moment, graceful
/// shutdown with an injected worker fault, the fault plane's
/// control-connection drop (a clean close, recoverable by reconnect),
/// and a drain racing an injected worker stall (must cut the stall
/// short and reconcile, not hang).
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "control/control_plane.hpp"
#include "control/protocol.hpp"
#include "control/server.hpp"
#include "dataplane/engine.hpp"
#include "fault/fault.hpp"
#include "telemetry/export.hpp"
#include "workload/scenario.hpp"

using namespace pclass;
using control::ControlPlane;
using control::ControlServer;
using control::HandlerResult;

namespace {

// ---- protocol units --------------------------------------------------------

TEST(ControlProtocol, TokenizeSplitsOnWhitespaceAndStripsCr) {
  const auto t = control::tokenize("  read   stats \t extra \r");
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0], "read");
  EXPECT_EQ(t[1], "stats");
  EXPECT_EQ(t[2], "extra");
  EXPECT_TRUE(control::tokenize("").empty());
  EXPECT_TRUE(control::tokenize(" \t \r").empty());
}

TEST(ControlProtocol, ParsesFieldGrammars) {
  const auto p = control::parse_ip_prefix("10.1.2.0/24");
  EXPECT_EQ(p.length, 24);
  EXPECT_TRUE(control::parse_ip_prefix("*").matches(0x12345678u));
  EXPECT_THROW((void)control::parse_ip_prefix("10.1.2.0"), ParseError);
  EXPECT_THROW((void)control::parse_ip_prefix("10.1.299.0/24"), ParseError);
  EXPECT_THROW((void)control::parse_ip_prefix("10.1.2.0/33"), ParseError);

  const auto r = control::parse_port_range("80-443");
  EXPECT_EQ(r.lo, 80);
  EXPECT_EQ(r.hi, 443);
  EXPECT_EQ(control::parse_port_range("80").hi, 80);
  EXPECT_EQ(control::parse_port_range("*").lo, 0);
  EXPECT_THROW((void)control::parse_port_range("443-80"), ParseError);
  EXPECT_THROW((void)control::parse_port_range("99999"), ParseError);

  EXPECT_THROW((void)control::parse_proto("256"), ParseError);
  EXPECT_THROW((void)control::parse_action("teleport:3"), ParseError);
}

TEST(ControlProtocol, ParsesRuleCommands) {
  const std::vector<std::string> add = {"add", "7",   "10", "10.0.0.0/8",
                                        "*",   "*",   "80", "6",
                                        "out:3"};
  const auto msg = control::parse_rule_command(add);
  const auto& fm = std::get<sdn::FlowMod>(msg);
  EXPECT_EQ(fm.command, sdn::FlowMod::Command::kAdd);
  EXPECT_EQ(fm.cookie, RuleId{7});
  EXPECT_EQ(fm.match.priority, 10u);

  const std::vector<std::string> rm = {"remove", "7"};
  EXPECT_EQ(std::get<sdn::FlowMod>(control::parse_rule_command(rm)).command,
            sdn::FlowMod::Command::kDelete);

  const std::vector<std::string> bad_arity = {"add", "7", "10"};
  EXPECT_THROW((void)control::parse_rule_command(bad_arity), ParseError);
  const std::vector<std::string> bad_id = {"remove", "not-a-number"};
  EXPECT_THROW((void)control::parse_rule_command(bad_id), ParseError);
  // Rule ids and priorities are the Rule Filter's 16-bit fields.
  std::vector<std::string> wide = add;
  wide[1] = "65535";
  wide[2] = "65535";
  EXPECT_NO_THROW((void)control::parse_rule_command(wide));
  wide[1] = "65536";
  EXPECT_THROW((void)control::parse_rule_command(wide), ParseError);
  wide[1] = "7";
  wide[2] = "70000";
  EXPECT_THROW((void)control::parse_rule_command(wide), ParseError);
  const std::vector<std::string> wide_rm = {"remove", "70000"};
  EXPECT_THROW((void)control::parse_rule_command(wide_rm), ParseError);
  const std::vector<std::string> wide_mod = {"modify", "70000", "drop"};
  EXPECT_THROW((void)control::parse_rule_command(wide_mod), ParseError);
  const std::vector<std::string> bad_verb = {"upsert", "7"};
  EXPECT_THROW((void)control::parse_rule_command(bad_verb), ParseError);
}

TEST(ControlProtocol, ParsesSetCommands) {
  const std::vector<std::string> alg = {"ip-alg", "rvh"};
  EXPECT_EQ(
      *std::get<sdn::ConfigMod>(control::parse_set_command(alg)).ip_algorithm,
      core::IpAlgorithm::kRvh);

  const std::vector<std::string> bad_knob = {"turbo", "on"};
  EXPECT_THROW((void)control::parse_set_command(bad_knob), ParseError);
  const std::vector<std::string> bad_value = {"ip-alg", "warp"};
  EXPECT_THROW((void)control::parse_set_command(bad_value), ParseError);
  // A retired knob is an unknown knob.
  const std::vector<std::string> retired = {"path-policy", "scalar-loop"};
  EXPECT_THROW((void)control::parse_set_command(retired), ParseError);
}

// ---- harness ---------------------------------------------------------------

ruleset::Rule probe_rule(u32 i) {
  ruleset::Rule r;
  r.src_ip = ruleset::IpPrefix::make(0x0A000000u | (i & 0xFFFFu), 32);
  r.id = RuleId{i};
  r.priority = i;
  r.action = ruleset::Action{sdn::ActionSpec::output(1).encode()};
  return r;
}

net::FiveTuple probe_tuple(u32 i) {
  net::FiveTuple t;
  t.src_ip = 0x0A000000u | (i & 0xFFFFu);
  t.dst_ip = 0x01020304u;
  t.protocol = net::kProtoTcp;
  return t;
}

sdn::Message add_msg(u32 i) {
  sdn::FlowMod fm;
  fm.command = sdn::FlowMod::Command::kAdd;
  fm.cookie = RuleId{i};
  fm.match = probe_rule(i);
  fm.action = sdn::ActionSpec::output(1);
  return fm;
}

core::ClassifierConfig harness_config() {
  core::ClassifierConfig cfg = core::ClassifierConfig::for_scale(1000);
  cfg.ip_algorithm = core::IpAlgorithm::kBst;
  cfg.combine_mode = core::CombineMode::kCrossProduct;  // exact: oracle-safe
  return cfg;
}

/// A full in-process daemon: loop-mode engine over a synthetic pool,
/// control plane, TCP server on an ephemeral loopback port.
struct ServeHarness {
  dataplane::RuleProgramPublisher programs;
  dataplane::TrafficPool pool;
  net::Trace trace;
  std::unique_ptr<dataplane::Engine> engine;
  std::unique_ptr<ControlPlane> cp;
  std::unique_ptr<ControlServer> server;
  std::atomic<bool> shutdown_requested{false};

  explicit ServeHarness(u64 stats_interval_ms = 5,
                        std::function<void(usize)> fault_hook = nullptr,
                        fault::FaultInjector* injector = nullptr,
                        dataplane::SupervisorConfig sup = {})
      : programs(harness_config()) {
    for (u32 i = 1; i <= 64; ++i) programs.apply(add_msg(i));
    for (u32 i = 0; i < 512; ++i) {
      const net::FiveTuple t = probe_tuple(i % 64 + 1);
      pool.add(t);
      trace.add({t, std::nullopt});
    }
    engine = std::make_unique<dataplane::Engine>(
        dataplane::EngineConfig{.workers = 2,
                                .batch_size = 16,
                                .loop = true,
                                .stats_interval_ms = stats_interval_ms,
                                .worker_fault_hook = std::move(fault_hook),
                                .fault_injector = injector,
                                .supervisor = sup},
        programs);
    engine->start(pool);
    ControlPlane::Options opts;
    opts.verify_trace = &trace;
    opts.request_shutdown = [this] { shutdown_requested.store(true); };
    cp = std::make_unique<ControlPlane>(*engine, programs, opts);
    control::ServerConfig scfg;
    if (injector != nullptr) {
      scfg.drop_request_hook = [injector](u64 idx) {
        return injector->should_drop_request(idx);
      };
    }
    server = std::make_unique<ControlServer>(scfg, &cp->registry(),
                                             cp->subscribe_hooks());
    server->start();
  }

  ~ServeHarness() {
    server->stop();
    cp->drain();
  }

  [[nodiscard]] u16 port() const { return server->port(); }
};

/// Minimal blocking line client for the wire protocol.
class TestClient {
 public:
  explicit TestClient(u16 port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    timeval tv{};
    tv.tv_sec = 10;  // no test should block forever on a protocol bug
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0)
        << "connect to 127.0.0.1:" << port;
  }
  ~TestClient() { close(); }

  void close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  void send_raw(std::string_view text) {
    ASSERT_EQ(::send(fd_, text.data(), text.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(text.size()));
  }

  /// Next '\n'-terminated line (without the terminator); empty string on
  /// EOF/timeout.
  std::string read_line() {
    while (true) {
      const usize nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      char chunk[512];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return {};
      buf_.append(chunk, static_cast<usize>(n));
    }
  }

  std::string read_exact(usize nbytes) {
    while (buf_.size() < nbytes) {
      char chunk[512];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      buf_.append(chunk, static_cast<usize>(n));
    }
    const usize take = std::min(nbytes, buf_.size());
    std::string out = buf_.substr(0, take);
    buf_.erase(0, take);
    return out;
  }

  struct Response {
    int code = 0;
    std::string message;
    std::string payload;
  };

  /// Send one request and parse status (+ DATA payload when present).
  Response request(const std::string& line) {
    send_raw(line + "\n");
    return read_response();
  }

  Response read_response() {
    Response r;
    const std::string status = read_line();
    const usize sp = status.find(' ');
    r.code = std::atoi(status.substr(0, sp).c_str());
    if (sp != std::string::npos) r.message = status.substr(sp + 1);
    if (r.code == control::kOk && expects_payload_) {
      const std::string frame = read_line();
      if (frame.starts_with("DATA ")) {
        r.payload = read_exact(
            static_cast<usize>(std::atoll(frame.substr(5).c_str())));
      }
    }
    return r;
  }

  /// `read` responses carry a DATA payload; everything else does not.
  Response read_request(const std::string& line) {
    expects_payload_ = true;
    Response r = request(line);
    expects_payload_ = false;
    return r;
  }

 private:
  int fd_ = -1;
  std::string buf_;
  bool expects_payload_ = false;
};

// ---- server framing & robustness ------------------------------------------

TEST(ControlServer, ReadHandlersServeFramedPayloads) {
  ServeHarness h;
  TestClient c(h.port());

  const auto version = c.read_request("read version");
  EXPECT_EQ(version.code, 200);
  EXPECT_NE(version.payload.find("\"git_sha\""), std::string::npos);

  const auto stats = c.read_request("read stats");
  EXPECT_EQ(stats.code, 200);
  EXPECT_NE(stats.payload.find("pclass-live-stats-v3"), std::string::npos);
  EXPECT_NE(stats.payload.find("\"socket\":{"), std::string::npos);

  const auto metrics = c.read_request("read metrics");
  EXPECT_EQ(metrics.code, 200);
  EXPECT_NE(metrics.payload.find("pclass_build_info{"), std::string::npos);
  EXPECT_NE(metrics.payload.find("pclass_live_packets_total"),
            std::string::npos);

  const auto series = c.read_request("read timeseries");
  EXPECT_EQ(series.code, 200);
  EXPECT_NE(series.payload.find("pclass-live-timeseries-v1"),
            std::string::npos);

  const auto handlers = c.read_request("read handlers");
  EXPECT_EQ(handlers.code, 200);
  EXPECT_NE(handlers.payload.find("metrics"), std::string::npos);

  const auto bye = c.request("quit");
  EXPECT_EQ(bye.code, 200);
}

TEST(ControlServer, RejectsMalformedUnknownAndOversizedLines) {
  ServeHarness h;
  {
    TestClient c(h.port());
    EXPECT_EQ(c.request("read no-such-handler").code, 404);
    EXPECT_EQ(c.request("write no-such-handler").code, 404);
    EXPECT_EQ(c.request("frobnicate now").code, 400);
    EXPECT_EQ(c.request("write rule add 1 2").code, 400);  // bad arity
    EXPECT_EQ(c.request("write rule add x 2 * * * * 6 drop").code, 400);
    EXPECT_EQ(c.request("write set ip-alg warp").code, 400);
    // Retired knobs are unknown knobs.
    EXPECT_EQ(c.request("write set path-policy phase2").code, 400);
    EXPECT_EQ(c.request("write set batch-mode scalar").code, 400);
    EXPECT_EQ(c.request("write set memo-ways 2").code, 400);
    // Above the Rule Filter's 16-bit id field: refused at parse time.
    EXPECT_EQ(c.request("write rule add 70000 5 99.99.99.0/24 98.0.0.0/8 "
                        "4242 4343 47 drop")
                  .code,
              400);
    EXPECT_EQ(c.request("subscribe stats 0").code, 400);
    EXPECT_EQ(c.request("read").code, 400);
    // Empty lines are ignored, not answered.
    c.send_raw("\n\n");
    EXPECT_EQ(c.read_request("read version").code, 200);
  }
  {
    // A complete line beyond kMaxLineBytes: 431 and the connection ends.
    TestClient c(h.port());
    c.send_raw(std::string(control::kMaxLineBytes + 100, 'a') + "\n");
    const auto r = c.read_response();
    EXPECT_EQ(r.code, 431);
    EXPECT_TRUE(c.read_line().empty());  // server closed
  }
  {
    // An unterminated flood beyond the cap is cut off the same way.
    TestClient c(h.port());
    c.send_raw(std::string(control::kMaxLineBytes + 100, 'b'));
    const auto r = c.read_response();
    EXPECT_EQ(r.code, 431);
  }
}

TEST(ControlServer, ReassemblesPartialLinesAcrossChunks) {
  ServeHarness h;
  TestClient c(h.port());
  c.send_raw("read ver");
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  c.send_raw("sion\nread stat");
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  c.send_raw("s\n");
  // Both requests complete despite arbitrary chunk boundaries.
  std::string status = c.read_line();
  EXPECT_TRUE(status.starts_with("200")) << status;
  std::string frame = c.read_line();
  ASSERT_TRUE(frame.starts_with("DATA "));
  (void)c.read_exact(static_cast<usize>(std::atoll(frame.substr(5).c_str())));
  status = c.read_line();
  EXPECT_TRUE(status.starts_with("200")) << status;
  frame = c.read_line();
  ASSERT_TRUE(frame.starts_with("DATA "));
  const std::string stats = c.read_exact(
      static_cast<usize>(std::atoll(frame.substr(5).c_str())));
  EXPECT_NE(stats.find("pclass-live-stats-v3"), std::string::npos);
}

TEST(ControlServer, ServesConcurrentClients) {
  ServeHarness h;
  constexpr usize kClients = 6;
  constexpr usize kRequests = 8;
  std::atomic<u64> ok{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (usize t = 0; t < kClients; ++t) {
    threads.emplace_back([&h, &ok] {
      TestClient c(h.port());
      for (usize i = 0; i < kRequests; ++i) {
        const auto r = c.read_request(i % 2 == 0 ? "read stats"
                                                 : "read metrics");
        if (r.code == 200 && !r.payload.empty()) {
          ok.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), kClients * kRequests);
  EXPECT_GE(h.server->connections_accepted(), kClients);
}

// ---- socket-driven updates: oracle + visibility ----------------------------

/// The socket rows once \p n accepted updates resolved and none is
/// pending, or as they stand after 5 s.
telemetry::SocketCounterSet await_visibility(const ControlPlane& cp, u64 n) {
  using S = telemetry::SocketCounter;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  telemetry::SocketCounterSet sv;
  cp.fill_counters(sv);
  while ((sv[S::visibility_samples] < n || sv[S::visibility_pending] > 0) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    cp.fill_counters(sv);
  }
  return sv;
}

TEST(ControlPlane, ScriptedUpdatesAreOracleCleanWithVisibilityLatency) {
  ServeHarness h;
  TestClient c(h.port());

  constexpr u32 kUpdates = 12;
  for (u32 i = 0; i < kUpdates; ++i) {
    const u32 id = 61000 + i;
    // Same shape the pool's headers probe, so new rules land in the
    // classified address space.
    std::ostringstream cmd;
    cmd << "write rule add " << id << " " << id << " 10.0."
        << ((id >> 8) & 0xFF) << "." << (id & 0xFF) << "/32 * * * 6 out:2";
    const auto r = c.request(cmd.str());
    ASSERT_EQ(r.code, 200) << r.message;
    EXPECT_NE(r.message.find("version="), std::string::npos);
    // Oracle-check the published snapshot after every single commit.
    const auto verify = c.read_request("read verify");
    ASSERT_EQ(verify.code, 200);
    EXPECT_NE(verify.payload.find("\"mismatches\":0"), std::string::npos)
        << verify.payload;
  }

  // Visibility fully resolves once every worker classified on (at
  // least) the last accepted version.
  using S = telemetry::SocketCounter;
  const telemetry::SocketCounterSet sv = await_visibility(*h.cp, kUpdates);
  EXPECT_EQ(sv[S::visibility_samples], kUpdates);
  EXPECT_EQ(sv[S::visibility_pending], 0u);
  EXPECT_EQ(sv[S::visibility_unresolved], 0u);
  EXPECT_EQ(sv[S::updates_accepted], kUpdates);
  // Nonzero latencies with sane ordering: every update reaches all
  // workers no sooner than the first, and a total bounds its maximum.
  EXPECT_GT(sv[S::cmd_to_first_total_ns], 0u);
  EXPECT_GT(sv[S::publish_to_first_total_ns], 0u);
  EXPECT_GE(sv[S::cmd_to_all_total_ns], sv[S::cmd_to_first_total_ns]);
  EXPECT_GE(sv[S::cmd_to_all_max_ns], sv[S::cmd_to_first_max_ns]);
  EXPECT_GE(sv[S::cmd_to_first_total_ns], sv[S::cmd_to_first_max_ns]);
  EXPECT_LT(sv[S::cmd_to_all_max_ns], u64{60} * 1'000'000'000);

  // Config knobs land through the same southbound path.
  EXPECT_EQ(c.request("write set ip-alg rvh").code, 200);
  EXPECT_EQ(c.request("write set ip-alg mbt").code, 200);
}

// ---- streaming subscriptions ----------------------------------------------

TEST(ControlPlane, SubscribeStreamsRowsAndEndsWithTerminalRecord) {
  ServeHarness h;
  TestClient c(h.port());
  const auto sub = c.request("subscribe stats 10");
  ASSERT_EQ(sub.code, 200);
  EXPECT_NE(sub.message.find("streaming"), std::string::npos);
  // Rows are NDJSON objects; collect a few.
  usize rows = 0;
  while (rows < 3) {
    const std::string line = c.read_line();
    ASSERT_FALSE(line.empty()) << "stream ended early";
    ASSERT_EQ(line.front(), '{') << line;
    EXPECT_NE(line.find("\"packets\":"), std::string::npos);
    ++rows;
  }
  // The next request ends the stream: terminal record first, then the
  // response to the new request.
  c.send_raw("read version\n");
  std::string line = c.read_line();
  while (!line.empty() && line.front() == '{' &&
         line.find("\"terminal\":true") == std::string::npos) {
    line = c.read_line();  // rows already in flight
  }
  ASSERT_NE(line.find("\"terminal\":true"), std::string::npos) << line;
  EXPECT_NE(line.find("\"rows_pushed\""), std::string::npos);
  line = c.read_line();
  EXPECT_TRUE(line.starts_with("200")) << line;
}

TEST(ControlPlane, DisconnectMidSubscriptionCleansUp) {
  ServeHarness h;
  {
    TestClient c(h.port());
    ASSERT_EQ(c.request("subscribe stats 5").code, 200);
    (void)c.read_line();  // at least one row flowed
    c.close();            // vanish mid-stream
  }
  // The server notices, unsubscribes, and keeps serving new clients.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  TestClient c2(h.port());
  EXPECT_EQ(c2.read_request("read stats").code, 200);
}

TEST(ControlPlane, SubscribeWithoutSamplerGetsTerminalRecord) {
  ServeHarness h(/*stats_interval_ms=*/0);  // no sampler thread
  TestClient c(h.port());
  const auto sub = c.request("subscribe stats 10");
  ASSERT_EQ(sub.code, 200);
  const std::string line = c.read_line();
  EXPECT_NE(line.find("\"terminal\":true"), std::string::npos) << line;
  EXPECT_NE(line.find("unavailable"), std::string::npos) << line;
  // The connection stays usable.
  EXPECT_EQ(c.read_request("read version").code, 200);
}

// ---- drain & reconcile -----------------------------------------------------

/// Every row of \p want (a worker or engine counter set) appears as
/// `"name":value` in the first JSON object at or after \p anchor in
/// \p json.
template <class Set>
void expect_counter_rows(const std::string& json, const std::string& anchor,
                         const Set& want) {
  SCOPED_TRACE(anchor);
  const usize at = json.find(anchor);
  ASSERT_NE(at, std::string::npos) << json;
  const std::string obj = json.substr(at, json.find('}', at) + 1 - at);
  for (usize i = 0; i < want.v.size(); ++i) {
    const std::string kv = "\"" + std::string(Set::kDefs[i].name) +
                           "\":" + std::to_string(want.v[i]);
    EXPECT_TRUE(obj.find(kv + ",") != std::string::npos ||
                obj.find(kv + "}") != std::string::npos)
        << kv << " not in " << obj;
  }
}

/// The drain moment and the counter table's promise, row by row: for
/// every row, the merged shards, the merged workers, the post-drain live
/// blocks and the merged timeseries agree (sum rows summed, max rows
/// maxed), and the row is rendered by `read stats`, `read metrics`,
/// `subscribe` rows, the daemon report and the scenario report.
TEST(ControlPlane, DrainReconcilesEveryCounterRowOnEverySurface) {
  using telemetry::CounterSet;
  ServeHarness h(/*stats_interval_ms=*/2);
  TestClient c(h.port());
  TestClient sub(h.port());
  ASSERT_EQ(sub.request("subscribe stats 5").code, 200);
  const std::string row = sub.read_line();
  for (u32 id = 62100; id < 62108; ++id) {
    std::ostringstream cmd;
    cmd << "write rule add " << id << " " << id << " 10.0.0." << id % 64 + 1
        << "/32 * * * 6 out:2";
    ASSERT_EQ(c.request(cmd.str()).code, 200);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const auto drain = c.request("write drain");
  ASSERT_EQ(drain.code, 200);
  EXPECT_NE(drain.message.find("packets="), std::string::npos);
  const dataplane::EngineReport rep = h.cp->drain();  // idempotent
  const std::string stats = c.read_request("read stats").payload;
  EXPECT_NE(stats.find("\"drained\":true"), std::string::npos);
  // Updates are refused after drain; reads keep working.
  EXPECT_EQ(c.request("write rule add 62001 62001 10.0.1.2/32 * * * 6 drop")
                .code,
            409);
  EXPECT_EQ(c.request("write set ip-alg bst").code, 409);
  EXPECT_EQ(c.read_request("read timeseries").code, 200);
  const std::string metrics = c.read_request("read metrics").payload;
  std::ostringstream serve;
  control::write_serve_report(serve, rep, *h.cp, *h.server);

  ASSERT_EQ(rep.shards.size(), 2u);
  const CounterSet workers = dataplane::merge_reports(0, rep.workers).counters;
  const CounterSet shards = dataplane::merge_reports(0, rep.shards).counters;
  CounterSet live;
  for (const auto* t : h.engine->telemetry_blocks()) {
    live.merge(t->live.snapshot());
  }
  CounterSet series;
  for (const auto& s : rep.timeseries) series.merge(s.counters);
  EXPECT_GT(workers[telemetry::Counter::packets], 0u);
  EXPECT_GT(workers[telemetry::Counter::update_visibility_samples], 0u);
  for (usize i = 0; i < telemetry::kNumCounters; ++i) {
    const std::string name(telemetry::kCounters[i].name);
    EXPECT_EQ(shards.v[i], workers.v[i]) << name;
    EXPECT_EQ(live.v[i], workers.v[i]) << name;
    EXPECT_EQ(series.v[i], workers.v[i]) << name;
    EXPECT_NE(row.find("\"" + name + "\":"), std::string::npos) << row;
    EXPECT_NE(metrics.find("pclass_live_" + name), std::string::npos)
        << name;
  }
  expect_counter_rows(stats, "\"totals\":", workers);
  expect_counter_rows(serve.str(), "\"totals\":", workers);
  expect_counter_rows(serve.str(), "\"shards\":[", rep.shards[0].counters);

  // The scenario report: same equalities, same rows.
  workload::ScenarioOptions opts;
  opts.workers = 3;
  opts.scale = 0.04;
  opts.stats_interval_ms = 1;
  workload::ScenarioRunner runner(opts);
  const std::vector<workload::ScenarioResult> results = {
      runner.run("acl-like")};
  const workload::ScenarioResult& r = results[0];
  ASSERT_TRUE(r.ok()) << r.error;
  ASSERT_EQ(r.shard_reports.size(), 3u);
  ASSERT_FALSE(r.timeseries.empty());
  CounterSet r_series;
  for (const auto& s : r.timeseries) r_series.merge(s.counters);
  EXPECT_TRUE(dataplane::merge_reports(0, r.shard_reports).counters ==
              r.engine.counters);
  EXPECT_TRUE(r_series == r.engine.counters);
  std::ostringstream json;
  workload::write_json_report(json, opts, results);
  expect_counter_rows(json.str(), "\"cache_hit_rate\":", r.engine.counters);
  expect_counter_rows(json.str(), "\"shards\":[",
                      r.shard_reports[0].counters);
  expect_counter_rows(json.str(), "\"timeseries\":[",
                      r.timeseries[0].counters);
}

/// Every row of \p want is a family of the row's kind in \p prom
/// (`<prefix><name>_total` counter, `<prefix><name>` gauge), sampled as
/// `<family><labels> <value>`.
template <class Set>
void expect_row_metrics(const std::string& prom, const std::string& prefix,
                        const std::string& labels, const Set& want) {
  for (usize i = 0; i < want.v.size(); ++i) {
    const telemetry::CounterDef& d = Set::kDefs[i];
    const bool gauge = d.kind == telemetry::CounterKind::kGauge;
    const std::string fam = prefix + std::string(d.name) +
                            (gauge ? "" : "_total");
    const std::string type = gauge ? " gauge\n" : " counter\n";
    EXPECT_NE(prom.find("# TYPE " + fam + type), std::string::npos) << fam;
    EXPECT_NE(prom.find("\n" + fam + labels + " " +
                        std::to_string(want.v[i]) + "\n"),
              std::string::npos)
        << fam << " in\n" << prom;
  }
}

/// The engine table's promise, under faults that make the supervisor
/// rows nonzero: every engine row has one value in the EngineReport,
/// the post-drain engine, `read stats`, `read metrics` and the daemon
/// report; and, for a finite chaos run with the ledger rows filled, in
/// the scenario JSON and the --metrics-out block.
TEST(ControlPlane, DrainReconcilesEveryEngineRowOnEverySurface) {
  using telemetry::EngineCounter;
  // Worker 1 dies past its restart budget (two restarts, then its
  // shard moves to worker 0); worker 0 stalls past the deadline.
  fault::FaultInjector inj(fault::FaultPlan::parse(
      "throw:w=1@1,throw:w=1@2,throw:w=1@3,stall:w=0@2:ms=80"));
  ServeHarness h(/*stats_interval_ms=*/5, nullptr, &inj,
                 {.enabled = true,
                  .watchdog_interval_ms = 2,
                  .stall_deadline_ms = 20,
                  .restart_backoff_ms = 1});
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while ((h.engine->counters()[EngineCounter::workers_failed] < 1 ||
          h.engine->counters()[EngineCounter::stall_detections] < 1) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  TestClient c(h.port());
  ASSERT_EQ(c.request("write drain").code, 200);
  const dataplane::EngineReport rep = h.cp->drain();
  const telemetry::EngineCounterSet& want = rep.counters;
  EXPECT_EQ(want[EngineCounter::worker_restarts], 2u);
  EXPECT_EQ(want[EngineCounter::workers_failed], 1u);
  EXPECT_EQ(want[EngineCounter::shards_reassigned], 1u);
  EXPECT_GE(want[EngineCounter::stall_detections], 1u);
  EXPECT_FALSE(rep.conservation_checked);  // loop mode: no ledger
  EXPECT_TRUE(h.engine->counters() == want);
  expect_counter_rows(c.read_request("read stats").payload, "\"engine\":{",
                      want);
  expect_row_metrics(c.read_request("read metrics").payload, "pclass_", "",
                     want);
  std::ostringstream serve;
  control::write_serve_report(serve, rep, *h.cp, *h.server);
  expect_counter_rows(serve.str(), "\"engine\":{", want);

  workload::ScenarioOptions opts;
  opts.workers = 3;
  opts.scale = 0.05;
  workload::ScenarioRunner runner(opts);
  const std::vector<workload::ScenarioResult> results = {runner.run("chaos")};
  const workload::ScenarioResult& r = results[0];
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.engine_counters[EngineCounter::delivered_packets],
            r.engine.counters[telemetry::Counter::packets]);
  std::ostringstream json;
  workload::write_json_report(json, opts, results);
  expect_counter_rows(json.str(), "\"engine\":{", r.engine_counters);
  std::ostringstream prom;
  {
    telemetry::MetricsWriter mw(prom);
    const telemetry::MetricsWriter::Label labels[] = {{"scenario", r.name}};
    telemetry::write_run_metrics(mw, labels, r.engine.counters,
                                 r.engine_counters, r.mpps, 0, 0);
  }
  expect_row_metrics(prom.str(), "pclass_", "{scenario=\"chaos\"}",
                     r.engine_counters);
}

/// The publisher and socket tables' promise: after socket updates and a
/// drain, every row of both has one value in its owner's
/// fill_counters, `read stats`, `read metrics` and the daemon report,
/// and the report carries both tables.
TEST(ControlPlane, DrainReconcilesEveryPublisherAndSocketRowOnEverySurface) {
  using P = telemetry::PublisherCounter;
  using S = telemetry::SocketCounter;
  ServeHarness h;
  TestClient c(h.port());
  constexpr u64 kUpdates = 6;
  for (u32 id = 62200; id < 62200 + kUpdates; ++id) {
    std::ostringstream cmd;
    cmd << "write rule add " << id << " " << id << " 10.0.0." << id % 64 + 1
        << "/32 * * * 6 out:2";
    ASSERT_EQ(c.request(cmd.str()).code, 200);
  }
  // Resolved first, so the latency rows are nonzero when compared.
  (void)await_visibility(*h.cp, kUpdates);
  ASSERT_EQ(c.request("write drain").code, 200);
  const dataplane::EngineReport rep = h.cp->drain();

  telemetry::PublisherCounterSet pub;
  h.programs.fill_counters(pub);
  telemetry::SocketCounterSet sock;
  h.cp->fill_counters(sock);
  // The harness installs 64 rules one publish each.
  EXPECT_EQ(pub[P::updates_applied], 64 + kUpdates);
  EXPECT_EQ(pub[P::publishes], 64 + kUpdates);
  EXPECT_EQ(pub[P::version], 64 + kUpdates);
  EXPECT_EQ(pub[P::rules], 64 + kUpdates);
  EXPECT_EQ(sock[S::updates_accepted], kUpdates);
  EXPECT_EQ(sock[S::visibility_samples], kUpdates);
  EXPECT_EQ(sock[S::visibility_pending], 0u);
  EXPECT_GT(sock[S::cmd_to_first_max_ns], 0u);
  EXPECT_GT(sock[S::publish_to_first_max_ns], 0u);

  const std::string stats = c.read_request("read stats").payload;
  expect_counter_rows(stats, "\"publisher\":{", pub);
  expect_counter_rows(stats, "\"socket\":{", sock);
  const std::string metrics = c.read_request("read metrics").payload;
  expect_row_metrics(metrics, "pclass_publisher_", "", pub);
  expect_row_metrics(metrics, "pclass_socket_", "", sock);
  std::ostringstream serve;
  control::write_serve_report(serve, rep, *h.cp, *h.server);
  expect_counter_rows(serve.str(), "\"publisher\":{", pub);
  expect_counter_rows(serve.str(), "\"socket\":{", sock);
  for (const auto* table : {"\"publisher_counters\":{\"version\":",
                            "\"socket_counters\":{\"updates_accepted\":"}) {
    EXPECT_NE(serve.str().find(table), std::string::npos) << table;
  }
}

// ---- trace capture ---------------------------------------------------------

TEST(ControlPlane, TraceCaptureStartStopDump) {
  ServeHarness h;
  TestClient c(h.port());
  EXPECT_EQ(c.request("write trace stop").code, 409);  // nothing running
  ASSERT_EQ(c.request("write trace start 512").code, 200);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  const std::string path =
      "/tmp/pclass_test_trace_" + std::to_string(::getpid()) + ".json";
  const auto dump = c.request("write trace dump " + path);
  ASSERT_EQ(dump.code, 200) << dump.message;
  EXPECT_NE(dump.message.find("events="), std::string::npos);
  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  std::stringstream body;
  body << is.rdbuf();
  EXPECT_NE(body.str().find("\"traceEvents\""), std::string::npos);
  std::remove(path.c_str());
  // A second dump re-serves the held capture; stop is 409 again.
  EXPECT_EQ(c.request("write trace stop").code, 409);
}

// ---- graceful shutdown -----------------------------------------------------

TEST(ControlPlane, ShutdownRequestSignalsAndDrainSurvivesWorkerFault) {
  std::atomic<bool> thrown{false};
  ServeHarness h(/*stats_interval_ms=*/5, [&](usize worker) {
    if (worker == 0 && !thrown.exchange(true)) {
      throw std::runtime_error("injected control-test fault");
    }
  });
  TestClient c(h.port());
  // The faulting worker dies mid-run; the daemon surface stays up.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(c.read_request("read stats").code, 200);

  const auto r = c.request("write shutdown");
  EXPECT_EQ(r.code, 200);
  EXPECT_TRUE(h.shutdown_requested.load());

  // The daemon's signal path: drain, then stop the server — the fault
  // is surfaced in the report, and both calls stay idempotent.
  const dataplane::EngineReport rep = h.cp->drain();
  EXPECT_NE(rep.first_error().find("injected"), std::string::npos);
  EXPECT_EQ(rep.packets(), h.cp->drain().packets());
  h.server->stop();
  h.server->stop();
}

// ---- fault plane on the control surface -----------------------------------

TEST(ControlFault, ConnDropClosesCleanlyAndReconnectRecovers) {
  // The server's request counter is global, so: request #0 answered,
  // request #1 dropped (connection closed before a single response
  // byte — what pclass_ctl.py's retry path sees), request #2 on a
  // fresh connection answered again.
  fault::FaultInjector inj(fault::FaultPlan::parse("conndrop:r=1"));
  ServeHarness h(/*stats_interval_ms=*/5, nullptr, &inj);
  {
    TestClient c(h.port());
    EXPECT_EQ(c.read_request("read version").code, 200);
    c.send_raw("read stats\n");
    EXPECT_TRUE(c.read_line().empty()) << "expected a silent close";
  }
  EXPECT_EQ(inj.counters().conn_drops, 1u);
  TestClient c2(h.port());
  const auto r = c2.read_request("read stats");
  EXPECT_EQ(r.code, 200);
  EXPECT_NE(r.payload.find("pclass-live-stats-v3"), std::string::npos);
}

TEST(ControlFault, DrainDuringInjectedStallCompletesWithinDeadline) {
  // Satellite 4: shutdown racing a stalled worker. A 10s stall is
  // active when drain lands; the engine's stop signal is wired to the
  // injector's abort flag, so the stall must cut short and the drain
  // reconcile within the watchdog's horizon — no hang, no double-drain.
  fault::FaultInjector inj(fault::FaultPlan::parse("stall:w=0@2:ms=10000"));
  dataplane::SupervisorConfig sup;
  sup.enabled = true;
  sup.watchdog_interval_ms = 5;
  sup.stall_deadline_ms = 40;
  ServeHarness h(/*stats_interval_ms=*/5, nullptr, &inj, sup);

  // Let worker 0 reach sweep 2 and sink into the stall, and give the
  // watchdog time to flag the episode.
  const auto armed = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(500);
  using telemetry::EngineCounter;
  while ((inj.counters().worker_stalls < 1 ||
          h.engine->counters()[EngineCounter::stall_detections] < 1) &&
         std::chrono::steady_clock::now() < armed) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(inj.counters().worker_stalls, 1u) << "stall never fired";
  EXPECT_GE(h.engine->counters()[EngineCounter::stall_detections], 1u);

  TestClient c(h.port());
  const auto t0 = std::chrono::steady_clock::now();
  const auto drain = c.request("write drain");
  const auto drain_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(drain.code, 200) << drain.message;
  EXPECT_LT(drain_ms, 5'000) << "drain waited out the 10s stall";

  // Reconciled: the report is final, a second drain is the same report,
  // and the stalled worker neither died nor lost anything.
  const dataplane::EngineReport rep = h.cp->drain();
  EXPECT_TRUE(rep.first_error().empty()) << rep.first_error();
  EXPECT_GE(rep.counters[EngineCounter::stall_detections], 1u);
  EXPECT_EQ(rep.counters[EngineCounter::worker_restarts], 0u);
  EXPECT_EQ(rep.counters[EngineCounter::workers_failed], 0u);
  EXPECT_EQ(rep.packets(), h.cp->drain().packets());
  const auto stats = c.read_request("read stats");
  ASSERT_EQ(stats.code, 200);
  EXPECT_NE(stats.payload.find("\"drained\":true"), std::string::npos);
}

}  // namespace
