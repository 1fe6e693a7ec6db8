/// \file pclass_serve.cpp
/// Long-running dataplane daemon with a live introspection plane: the
/// engine loops over a header trace while a line-oriented control
/// socket (TCP loopback or Unix domain) serves reads (`read stats|
/// metrics|timeseries|version|verify`), writes (`rule add/remove/
/// modify`, `set <knob>`, `trace start/stop/dump`, `drain`,
/// `shutdown`) and streaming subscriptions (`subscribe stats <ms>`).
/// docs/CONTROL.md documents the wire protocol; tools/pclass_ctl.py is
/// the reference client.
///
///   pclass_serve --rules FILE --trace FILE
///                [--listen tcp:PORT | tcp:HOST:PORT | unix:PATH]
///                [--workers N] [--batch B] [--cache-depth N]
///                [--stats-interval-ms N] [--ip-alg mbt|bst|rvh]
///                [--fault-plan SPEC] [--report FILE] [--version]
///
/// The --workers N threads serve the loop over N RSS-style shards
/// (per-flow steered slices, one classifier replica + flow cache per
/// shard); `read stats` reports one row per shard.
///
/// The engine runs supervised: a watchdog thread restarts workers that
/// die (bounded retries with backoff), detects heartbeat stalls, and
/// reassigns an unrecoverable worker's shards to survivors.
/// --fault-plan SPEC injects deterministic faults (grammar:
/// throw:w=W@S, stall:w=W@S:ms=D, pubfail:u=K, conndrop:r=K — see
/// docs/ROBUSTNESS.md) for chaos drills; conndrop events make the
/// control server drop the matching request's connection mid-flight.
/// The exit code is nonzero iff any worker ended permanently failed
/// (post-retry); healed restarts are reported but do not fail the run.
///
/// Rule/trace files may be ClassBench text or the versioned PCR1/PCT1
/// binaries (sniffed by magic). Once serving, the first stdout line is
///
///   READY endpoint=<ep> pid=<pid> version=<v> rules=<n> workers=<k>
///
/// which scripted drivers (CI, pclass_ctl.py --wait) key on.
///
/// Shutdown: SIGINT/SIGTERM or a `write shutdown` request drains the
/// workers (final telemetry flush included), closes every subscriber
/// with a terminal record, writes the JSON report (--report, schema
/// pclass-serve-v3: totals, engine, publisher and socket rows, server
/// counters and the timeseries) and exits 0.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "common/build_info.hpp"
#include "common/parse.hpp"
#include "control/control_plane.hpp"
#include "control/server.hpp"
#include "dataplane/engine.hpp"
#include "fault/fault.hpp"
#include "net/trace.hpp"
#include "ruleset/classbench.hpp"
#include "workload/binio.hpp"

using namespace pclass;

namespace {

int usage() {
  std::cerr
      << "usage: pclass_serve --rules FILE --trace FILE\n"
         "                    [--listen tcp:PORT|tcp:HOST:PORT|unix:PATH]\n"
         "                    [--workers N] [--batch B] [--cache-depth N]\n"
         "                    [--stats-interval-ms N] "
         "[--ip-alg mbt|bst|rvh]\n"
         "                    [--fault-plan SPEC] [--report FILE] "
         "[--version]\n"
         "(rules/trace: ClassBench text or PCR1/PCT1 binaries, sniffed)\n";
  return 2;
}

/// Signal-driven and socket-driven shutdown share one flag; the handler
/// may only touch async-signal-safe state.
std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true, std::memory_order_relaxed); }

/// Load a rule file, sniffing the PCR1 magic vs. ClassBench text.
ruleset::RuleSet load_rules(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw Error("cannot open " + path);
  char magic[4] = {};
  is.read(magic, 4);
  const bool binary = is.gcount() == 4 && std::string_view(magic, 4) == "PCR1";
  is.close();
  if (binary) return workload::binio::load_ruleset_file(path);
  std::ifstream text(path);
  return ruleset::classbench::read(text, path);
}

/// Load a trace file, sniffing the PCT1 magic vs. text.
net::Trace load_trace(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw Error("cannot open " + path);
  char magic[4] = {};
  is.read(magic, 4);
  const bool binary = is.gcount() == 4 && std::string_view(magic, 4) == "PCT1";
  is.close();
  if (binary) return workload::binio::load_trace_file(path);
  std::ifstream text(path);
  return net::Trace::read(text);
}

/// `tcp:PORT`, `tcp:HOST:PORT` or `unix:PATH` -> ServerConfig.
control::ServerConfig parse_listen(const std::string& spec) {
  control::ServerConfig cfg;
  if (spec.starts_with("unix:")) {
    cfg.unix_path = spec.substr(5);
    if (cfg.unix_path.empty()) throw Error("--listen unix: empty path");
    return cfg;
  }
  if (!spec.starts_with("tcp:")) {
    throw Error("--listen: expected tcp:PORT, tcp:HOST:PORT or unix:PATH");
  }
  std::string rest = spec.substr(4);
  const usize colon = rest.rfind(':');
  if (colon != std::string::npos) {
    cfg.tcp_host = rest.substr(0, colon);
    rest = rest.substr(colon + 1);
  }
  u64 port = 0;
  if (!parse_count(rest, port) || port > 0xFFFF) {
    throw Error("--listen: bad port '" + rest + "'");
  }
  cfg.tcp_port = static_cast<u16>(port);
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  std::string rules_path;
  std::string trace_path;
  std::string listen_spec = "tcp:0";
  std::string report_path;
  usize workers = 2;
  usize batch = net::kDefaultBatchCapacity;
  u32 cache_depth = 0;
  u64 stats_interval_ms = 100;
  core::IpAlgorithm ip_algorithm = core::IpAlgorithm::kMbt;
  std::string fault_plan_spec;

  u64 n = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--version") {
      std::cout << common::version_line("pclass_serve") << "\n";
      return 0;
    } else if (flag == "--rules" && i + 1 < argc) {
      rules_path = argv[++i];
    } else if (flag == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (flag == "--listen" && i + 1 < argc) {
      listen_spec = argv[++i];
    } else if (flag == "--report" && i + 1 < argc) {
      report_path = argv[++i];
    } else if (flag == "--workers" && i + 1 < argc) {
      if (!parse_count(argv[++i], n) || n == 0 || n > 256) return usage();
      workers = static_cast<usize>(n);
    } else if (flag == "--batch" && i + 1 < argc) {
      if (!parse_count(argv[++i], n) || n == 0) return usage();
      batch = static_cast<usize>(n);
    } else if (flag == "--cache-depth" && i + 1 < argc) {
      if (!parse_count(argv[++i], n) || n > (u64{1} << 24)) return usage();
      cache_depth = static_cast<u32>(n);
    } else if (flag == "--stats-interval-ms" && i + 1 < argc) {
      if (!parse_count(argv[++i], n) || n > 3'600'000) return usage();
      stats_interval_ms = n;
    } else if (flag == "--ip-alg" && i + 1 < argc) {
      const std::string v = argv[++i];
      if (v == "mbt") ip_algorithm = core::IpAlgorithm::kMbt;
      else if (v == "bst") ip_algorithm = core::IpAlgorithm::kBst;
      else if (v == "rvh") ip_algorithm = core::IpAlgorithm::kRvh;
      else return usage();
    } else if (flag == "--fault-plan" && i + 1 < argc) {
      fault_plan_spec = argv[++i];
    } else {
      return usage();
    }
  }
  if (rules_path.empty() || trace_path.empty()) return usage();

  try {
    const ruleset::RuleSet rules = load_rules(rules_path);
    const net::Trace trace = load_trace(trace_path);
    if (trace.empty()) throw Error("trace is empty; nothing to serve");
    std::cerr << common::version_line("pclass_serve") << "\n"
              << "loaded " << rules.size() << " rules, " << trace.size()
              << " headers\n";

    // Headroom over the installed set so socket-driven `rule add`s have
    // device memory to land in.
    core::ClassifierConfig cfg =
        core::ClassifierConfig::for_scale(rules.size() + 1024);
    cfg.combine_mode = core::CombineMode::kCrossProduct;
    cfg.ip_algorithm = ip_algorithm;

    dataplane::RuleProgramPublisher programs(cfg);
    programs.install_ruleset(rules);
    dataplane::TrafficPool pool =
        dataplane::TrafficPool::from_trace(trace, /*materialize=*/false);

    // Fault injection (chaos drills): the injector must outlive the
    // engine and the control server, both of which hold pointers in.
    std::unique_ptr<fault::FaultInjector> injector;
    if (!fault_plan_spec.empty()) {
      injector = std::make_unique<fault::FaultInjector>(
          fault::FaultPlan::parse(fault_plan_spec));
      programs.set_fault_hook(
          [inj = injector.get()] { inj->on_publisher_apply(); });
      std::cerr << "fault plan armed: " << injector->plan().to_string()
                << "\n";
    }

    dataplane::EngineConfig ecfg{.workers = workers,
                                 .batch_size = batch,
                                 .flow_cache_depth = cache_depth,
                                 .loop = true,
                                 .stats_interval_ms = stats_interval_ms};
    // The daemon always runs supervised: workers that die restart with
    // bounded retries, stalls are detected, and a permanently failed
    // worker's shards move to survivors instead of wedging the loop.
    ecfg.supervisor.enabled = true;
    ecfg.fault_injector = injector.get();
    dataplane::Engine engine(ecfg, programs);

    struct sigaction sa = {};
    sa.sa_handler = handle_signal;
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);

    engine.start(pool);

    control::ControlPlane::Options copts;
    copts.verify_trace = &trace;
    copts.request_shutdown = [] {
      g_stop.store(true, std::memory_order_relaxed);
    };
    control::ControlPlane cp(engine, programs, copts);
    control::ServerConfig scfg = parse_listen(listen_spec);
    if (injector) {
      scfg.drop_request_hook = [inj = injector.get()](u64 request_index) {
        return inj->should_drop_request(request_index);
      };
    }
    control::ControlServer server(std::move(scfg), &cp.registry(),
                                  cp.subscribe_hooks());
    server.start();

    std::cout << "READY endpoint=" << server.endpoint()
              << " pid=" << ::getpid() << " version=" << programs.version()
              << " rules=" << programs.acquire()->rule_count()
              << " workers=" << workers << "\n"
              << std::flush;

    while (!g_stop.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }

    std::cerr << "pclass_serve: shutting down (drain -> report)\n";
    // Drain first (stop workers, final telemetry flush, settle the
    // visibility ledger) so the report carries complete totals; then
    // stop the server, which sends every live subscriber its terminal
    // record before closing. `write drain` earlier makes this a no-op.
    const dataplane::EngineReport rep = cp.drain();
    server.stop();

    if (!report_path.empty()) {
      std::ofstream os(report_path);
      if (!os) throw Error("cannot open " + report_path);
      control::write_serve_report(os, rep, cp, server);
      std::cerr << "wrote " << report_path << "\n";
    }

    std::cerr << "served " << server.requests_served() << " requests on "
              << server.connections_accepted() << " connections\n"
              << "processed " << rep.packets() << " packets ("
              << rep.aggregate_mpps() << " Mpps aggregate)\n";
    // Surface every worker death — healed incarnations and permanent
    // failures alike — and every nonzero socket and engine row, then
    // fail the run iff a worker ended permanently failed (post-retry).
    // A restart the supervisor healed is news, not an error.
    for (const auto& d : rep.error_log) std::cerr << d.line() << "\n";
    const auto print_nonzero = [](const char* owner, const auto& c) {
      for (usize i = 0; i < c.v.size(); ++i) {
        if (c.v[i] > 0) {
          std::cerr << owner << ": " << c.kDefs[i].name << "=" << c.v[i]
                    << "\n";
        }
      }
    };
    telemetry::SocketCounterSet sock;
    cp.fill_counters(sock);
    print_nonzero("socket", sock);
    print_nonzero("engine", rep.counters);
    if (const u64 failed =
            rep.counters[telemetry::EngineCounter::workers_failed];
        failed > 0) {
      std::cerr << "error: " << failed
                << " worker(s) ended permanently failed (post-retry)\n";
      return 1;
    }
    if (const std::string err = rep.first_error(); !err.empty()) {
      std::cerr << "error: worker failed: " << err << "\n";
      return 1;
    }
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
