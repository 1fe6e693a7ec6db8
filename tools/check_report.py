#!/usr/bin/env python3
"""CI gates over the reports pclass_scenario and pclass_serve write.

One subcommand per gate (see each gate_* docstring); a broken invariant
raises AssertionError and the exit status is nonzero:

  check_report.py backends MBT RVH STORM_MBT STORM_RVH
  check_report.py shards REPORT
  check_report.py telemetry REPORT TRACE METRICS
  check_report.py chaos REPORT
  check_report.py serve-fault STATS
  check_report.py serve REPORT STATS VERIFY SUBSCRIBE TRACE SCRAPE...
  check_report.py schema SERVE_REPORT SCENARIO_REPORT...
  check_report.py --self-test    # every gate must catch a violation

STORM_* are best-of-3 prefixes (PREFIX_1.json .. PREFIX_3.json);
the SCRAPEs are in time order, the last taken after drain. Each report
carries its counter tables (name -> kind/merge/unit), pinned in TABLES:
the worker rows `counters`, and `engine_counters`, `publisher_counters`
and (serve report) `socket_counters`. The gates fold worker rows by
their merge rule and find every other row, under one name, on every
surface.
"""

import copy
import json
import math
import sys

SCENARIO_SCHEMA = "pclass-scenarios-v9"
SERVE_SCHEMA = "pclass-serve-v3"
LIVE_STATS_SCHEMA = "pclass-live-stats-v3"
# Documented scenario-report keys besides the counter rows.
SCENARIO_KEYS = (
    "ip_algorithm", "stats_interval_ms", "update-storm-multi",
    "telemetry", "timeseries", "update_visibility", "errors", "shards",
    "fault_plan", "fault", "injected", "engine", "conservation", "conserved",
    "lookup_cycles", "oracle", "all_ok")
# The rows of PCLASS_WORKER_COUNTERS (src/telemetry/counters.hpp) and
# their merge rules, pinned so that a row deleted or renamed there fails
# the gates instead of leaving the table and every surface together.
COUNTER_ROWS = {
    "packets": "sum", "batches": "sum", "matched": "sum", "dropped": "sum",
    "parse_errors": "sum", "cache_hits": "sum", "cache_misses": "sum",
    "cache_flushes": "sum", "cache_lines_invalidated": "sum",
    "classifier_lookups": "sum", "memory_accesses": "sum",
    "snapshot_version": "max", "update_visibility_samples": "sum",
    "update_visibility_total_ns": "sum", "update_visibility_max_ns": "max"}
# The rows of PCLASS_ENGINE_COUNTERS, pinned the same way.
ENGINE_ROWS = dict.fromkeys((
    "worker_restarts", "stall_detections", "shards_reassigned",
    "workers_failed", "offered_packets", "delivered_packets", "shed_packets",
    "lost_packets", "trace_events_dropped", "trace_events_truncated"), "sum")
# The rows of PCLASS_PUBLISHER_COUNTERS and PCLASS_SOCKET_COUNTERS.
PUBLISHER_ROWS = dict(version="max", rules="max", updates_applied="sum",
                      publishes="sum", grace_spins="sum", standby_copies="sum")
SOCKET_ROWS = {
    "updates_accepted": "sum", "visibility_samples": "sum",
    "visibility_unresolved": "sum", "visibility_pending": "sum",
    "cmd_to_first_total_ns": "sum", "cmd_to_first_max_ns": "max",
    "cmd_to_all_total_ns": "sum", "cmd_to_all_max_ns": "max",
    "publish_to_first_total_ns": "sum", "publish_to_first_max_ns": "max"}
# Each report table's key -> its pinned rows and the serve report's
# object that holds them (the worker rows: merged, as `totals`).
TABLES = {"counters": (COUNTER_ROWS, "totals"),
          "engine_counters": (ENGINE_ROWS, "engine"),
          "publisher_counters": (PUBLISHER_ROWS, "publisher"),
          "socket_counters": (SOCKET_ROWS, "socket")}


def load(path):
    with open(path) as f:
        return json.load(f)


def best_of_3(prefix):
    return [load(f"{prefix}_{i}.json") for i in (1, 2, 3)]


def by_name(rep):
    return {s["name"]: s for s in rep["scenarios"]}


def counter_table(rep, what, key="counters"):
    """The report's table under `key`, checked against its pinned rows."""
    table = rep[key]
    pinned, _ = TABLES[key]
    got = {name: spec["merge"] for name, spec in table.items()}
    assert got == pinned, f"schema drift: {what} {key} table differs " \
        f"from the pinned rows on {sorted(got.items() ^ pinned.items())}"
    return table


def family(name, spec, prefix="pclass_"):
    """The Prometheus family of a row: one name, one kind."""
    return prefix + name + ("_total" if spec["kind"] == "counter" else "")


def expect_metrics(table, metrics, rows, labels, what, prefix="pclass_"):
    """Every row of `table` is one family of its row's kind in `metrics`,
    sampled as `<family><labels> <value>` with the value of `rows`."""
    lines = set(metrics.splitlines())
    for name, spec in table.items():
        fam = family(name, spec, prefix)
        assert f"# TYPE {fam} {spec['kind']}" in lines, \
            f"{what}: {fam} missing or not a {spec['kind']}"
        assert f"{fam}{labels} {rows[name]}" in lines, \
            f"{what}: {fam}{labels} is not {rows[name]}"


def fold(table, rows):
    """Merge counter rows by the table's rules: {name: merged value}."""
    out = {}
    for name, spec in table.items():
        vals = [row[name] for row in rows]
        out[name] = max(vals, default=0) if spec["merge"] == "max" else sum(vals)
    return out


def expect_fold(table, rows, total, what):
    merged = fold(table, rows)
    for name in table:
        assert merged[name] == total[name], \
            f"{what}: merged {name}={merged[name]} != {total[name]}"


# ---- gates ------------------------------------------------------------------

def gate_backends(mbt_rep, rvh_rep, mbt_storm, rvh_storm):
    """Both catalog legs all_ok (every scenario oracle-clean per backend);
    update-storm (best-of-3): RVH sustains >= the MBT update rate (its
    incremental bucket updates vs the trie's leaf-push writes) and wins or
    ties Mpps (>= 0.90x, the noise floor of 2-core runners); the
    best-backend column never regresses > 5% vs MBT (the max of two
    families can only add a backend); no catastrophic loss: RVH >= 0.30x
    MBT on every scenario."""
    assert mbt_rep["options"]["ip_algorithm"] == "MBT", mbt_rep["options"]
    assert rvh_rep["options"]["ip_algorithm"] == "RVH", rvh_rep["options"]
    assert mbt_rep["all_ok"], "MBT leg not all_ok"
    assert rvh_rep["all_ok"], "RVH leg not all_ok"
    mbt, rvh = by_name(mbt_rep), by_name(rvh_rep)
    assert mbt.keys() == rvh.keys()
    print(f"{'scenario':<20}{'MBT Mpps':>10}{'RVH Mpps':>10}{'ratio':>8}  winner")
    for name in mbt:
        a = mbt[name]["throughput_mpps"]
        b = rvh[name]["throughput_mpps"]
        ratio = b / a if a > 0 else 0.0
        print(f"{name:<20}{a:>10.3f}{b:>10.3f}{ratio:>8.2f}  "
              f"{'RVH' if b > a else 'MBT'}")
        assert max(a, b) >= 0.95 * a, \
            f"{name}: best-backend {max(a, b):.3f} regressed vs MBT {a:.3f}"
        assert b >= 0.30 * a, f"{name}: catastrophic RVH loss ({ratio:.2f}x)"

    def best(reps, label):
        runs = [by_name(r) for r in reps]
        for run in runs:
            for s in run.values():
                assert s["ok"], f"{s['name']} ({label}): not ok"
        return {name: {"mpps": max(r[name]["throughput_mpps"] for r in runs),
                       "ups": max(r[name]["updates"]["per_second"]
                                  for r in runs)}
                for name in runs[0]}

    m3, r3 = best(mbt_storm, "MBT storm"), best(rvh_storm, "RVH storm")
    for name in ("update-storm", "update-storm-multi"):
        a, b = m3[name]["mpps"], r3[name]["mpps"]
        print(f"{name} best-of-3: MBT {a:.2f} Mpps, RVH {b:.2f} Mpps")
        assert b >= 0.90 * a, \
            f"{name}: RVH must win or tie Mpps, got {b:.3f} vs {a:.3f}"
    ua, ub = m3["update-storm"]["ups"], r3["update-storm"]["ups"]
    print(f"update-storm best-of-3 updates/s: MBT {ua:.0f}, RVH {ub:.0f}")
    assert ub >= ua, \
        f"update-storm: RVH update rate {ub:.0f}/s lost to MBT {ua:.0f}/s"


def gate_shards(rep):
    """Every scenario ok and oracle-clean, with one shard row per worker
    (chaos runs at least 3 workers), the rows merging to the scenario's
    value on every counter row."""
    workers = rep["options"]["workers"]
    table = counter_table(rep, "shards")
    for s in rep["scenarios"]:
        name = s["name"]
        assert s["ok"], f"{name}: not ok: {s['error']}"
        assert s["oracle"]["mismatches"] == 0, f"{name}: oracle mismatches"
        want = max(workers, 3) if name == "chaos" else workers
        assert len(s["shards"]) == want, \
            f"{name}: {len(s['shards'])} shard rows, want {want}"
        expect_fold(table, s["shards"], s, f"{name}: shards")
        print(f"{name}: {want} shard rows fold to the totals")


def metric_families(metrics):
    """Prometheus family names in the order their line groups appear;
    a family split into two groups appears twice."""
    order = []
    for line in metrics.splitlines():
        if line.startswith("# "):
            name = line.split(" ")[2]
        elif line:
            name = line.split("{")[0].split(" ")[0]
        else:
            continue
        if not order or order[-1] != name:
            order.append(name)
    return order


def gate_telemetry(rep, trace, metrics):
    """One trace process per scenario with per-worker tracks; every
    scenario's timeseries merges to its totals on every counter row;
    update-storm scenarios report finite nonzero visibility latency;
    each metrics family is one contiguous group of lines."""
    events = trace["traceEvents"]
    procs = {e["pid"]: e["args"]["name"]
             for e in events if e.get("name") == "process_name"}
    spans = [e for e in events if e.get("ph") == "X"]
    tracks = {(e["pid"], e["tid"]) for e in spans}
    names = [s["name"] for s in rep["scenarios"]]
    assert set(procs.values()) == set(names), \
        f"trace processes {sorted(procs.values())} != scenarios {sorted(names)}"
    assert len(tracks) >= len(procs), "no per-worker tracks"
    assert spans, "trace has no batch spans"
    for s in rep["scenarios"]:
        tel = s["telemetry"]
        assert tel["timeseries"], f"{s['name']}: empty timeseries with sampler on"
        expect_fold(counter_table(rep, "telemetry"), tel["timeseries"], s,
                    f"{s['name']}: deltas")
        if s["updates"]["applied"] > 0:
            vis = tel["update_visibility"]
            assert vis["samples"] > 0, f"{s['name']}: no visibility samples"
            assert vis["mean_ns"] > 0 and math.isfinite(vis["mean_ns"])
            assert vis["max_ns"] >= vis["mean_ns"]
            print(f"{s['name']}: update visibility mean "
                  f"{vis['mean_ns']/1e3:.0f}us max {vis['max_ns']/1e3:.0f}us "
                  f"({vis['samples']} samples)")
    for m in ("pclass_packets_total", "pclass_update_visibility_mean_ns"):
        assert m in metrics, f"{m} missing from the metrics dump"
    table = counter_table(rep, "telemetry", "engine_counters")
    for s in rep["scenarios"]:
        expect_metrics(table, metrics, s["engine"],
                              f'{{scenario="{s["name"]}"}}', s["name"])
    families = metric_families(metrics)
    split = sorted({f for f in families if families.count(f) > 1})
    assert not split, f"metrics families not contiguous: {split}"
    print(f"trace: {len(spans)} spans, {len(procs)} processes, "
          f"{len(tracks)} tracks — all delta sums exact")


def gate_chaos(rep):
    """Oracle-clean with flow-cache hits among the judged verdicts, exact
    conservation, the seeded faults healed, and the seeded stall fired
    and was detected."""
    s = rep["scenarios"][0]
    assert s["ok"], f"chaos not ok: {s['error']}"
    assert s["oracle"]["mismatches"] == 0 and s["oracle"]["checked"] > 0
    assert s["cache_hits"] > 0, "chaos: no flow-cache hit was judged"
    c = s["conservation"]
    assert c["checked"] and c["conserved"], c
    e = s["engine"]
    assert e["delivered_packets"] + e["shed_packets"] + e["lost_packets"] \
        == e["offered_packets"], e
    assert e["worker_restarts"] >= 1, e
    assert e["shards_reassigned"] >= 1, e
    assert e["workers_failed"] >= 1, e
    assert e["stall_detections"] >= 1, e
    f = s["fault"]
    assert f["injected"]["worker_throws"] >= 1, f
    assert f["injected"]["worker_stalls"] >= 1, f
    assert f["injected"]["publish_failures"] >= 1, f
    print(f"chaos: conservation {c}, engine {e}, oracle {s['oracle']}, "
          f"fault {f}")


def gate_serve_fault(stats):
    """The supervised daemon restarted its killed worker, none failed."""
    assert stats["schema"] == LIVE_STATS_SCHEMA, stats["schema"]
    e = stats["engine"]
    assert e["supervisor"], e
    assert e["worker_restarts"] >= 1, e
    assert e["workers_failed"] == 0, e
    print(f"daemon self-healed: restarts={e['worker_restarts']}")


def live_total(scrape, family="pclass_live_packets_total"):
    return sum(int(float(line.rsplit(" ", 1)[1]))
               for line in scrape.splitlines()
               if line.startswith(family + "{"))


def gate_serve(rep, live, verify, sub_lines, trace, scrapes):
    """Live packet scrapes monotone (the last after drain, equal to the
    report); post-drain `read stats` totals == report totals == merged
    timeseries on every counter row; every engine, publisher and socket
    row equal in the report, the post-drain `read stats` and the final
    scrape; all 40 socket updates accounted, resolved ones with nonzero
    visibility latency; verify clean; subscription rows and a trace
    capture present."""
    seen = [live_total(s) for s in scrapes]
    assert all(b >= a for a, b in zip(seen, seen[1:])), \
        f"live packet scrapes not monotone: {seen}"
    assert seen[-1] > seen[0] > 0, f"daemon classified nothing: {seen}"
    assert rep["schema"] == SERVE_SCHEMA
    assert live["schema"] == LIVE_STATS_SCHEMA, live["schema"]
    assert rep["meta"]["build"]["version"]
    totals = rep["totals"]
    assert live["drained"] is True
    for key, (_, obj) in TABLES.items():
        table = counter_table(rep, "serve", key)
        for name in table:
            assert live[obj][name] == rep[obj][name], \
                f"post-drain stats {obj}.{name}={live[obj][name]} != " \
                f"report {rep[obj][name]}"
        if obj != "totals":  # the scrape has worker rows per worker
            expect_metrics(table, scrapes[-1], rep[obj], "", "final scrape",
                           "pclass_" if obj == "engine" else f"pclass_{obj}_")
    expect_fold(counter_table(rep, "serve"), rep["timeseries"], totals,
                "report timeseries")
    assert seen[-1] == totals["packets"], \
        "final Prometheus scrape disagrees with the report"
    vis = rep["socket"]
    assert vis["updates_accepted"] == 40, vis
    assert vis["visibility_samples"] > 0, vis
    assert vis["visibility_pending"] == 0, vis
    assert vis["visibility_samples"] + vis["visibility_unresolved"] == 40, vis
    assert all(vis[f"{k}_total_ns"] > 0
               for k in ("cmd_to_first", "cmd_to_all", "publish_to_first")), vis
    assert vis["cmd_to_all_max_ns"] >= vis["cmd_to_first_max_ns"], vis
    assert verify["mismatches"] == 0 and verify["checked"] > 0, verify
    assert verify["rules"] >= 40, verify
    rows = [json.loads(line) for line in sub_lines if line.startswith("{")]
    data_rows = [r for r in rows if not r.get("terminal")]
    assert data_rows, "subscription pushed no rows"
    for r in data_rows:
        assert r["interval_ns"] > 0
    assert trace["traceEvents"], "socket trace capture is empty"
    print(f"daemon: {totals['packets']} packets, {len(scrapes)} scrapes, "
          f"visibility {vis}, {len(data_rows)} subscription rows")


def expect_rows(table, row, what):
    missing = [n for n in table if n not in row]
    assert not missing, f"schema drift: {missing} missing from {what}"


def gate_schema(serve_text, scenario_texts):
    """Schema ids and documented keys present; every report's tables are
    the pinned rows (TABLES); every worker row on every scenario, shard
    and timeseries row of a scenario report; every engine and publisher
    row in every scenario's object of that name, and every row of each
    table in the serve report's object for it."""
    serve = json.loads(serve_text)
    assert "errors" in serve, "schema drift: no errors log in the serve report"
    for key, (_, obj) in TABLES.items():
        expect_rows(counter_table(serve, "serve", key), serve[obj],
                    f"serve {obj} rows")
    for path, text in scenario_texts:
        assert f'"schema":"{SCENARIO_SCHEMA}"' in text, \
            f"schema drift: {SCENARIO_SCHEMA} missing from {path}"
        for key in SCENARIO_KEYS:
            assert f'"{key}"' in text, f"schema drift: {key} missing from {path}"
        rep = json.loads(text)
        table = counter_table(rep, path)
        for s in rep["scenarios"]:
            for row in [s] + s["shards"] + s["telemetry"]["timeseries"]:
                expect_rows(table, row, f"a {s['name']} row in {path}")
            for key in ("engine_counters", "publisher_counters"):
                obj = TABLES[key][1]
                expect_rows(counter_table(rep, path, key), s[obj],
                            f"{s['name']} {obj} rows in {path}")
    print(f"schema: {len(scenario_texts)} scenario reports + serve report ok")


# ---- command line -----------------------------------------------------------

def read_text(path):
    with open(path) as f:
        return f.read()


COMMANDS = {
    "backends": lambda a: gate_backends(load(a[0]), load(a[1]),
                                        best_of_3(a[2]), best_of_3(a[3])),
    "shards": lambda a: gate_shards(load(a[0])),
    "telemetry": lambda a: gate_telemetry(load(a[0]), load(a[1]),
                                          read_text(a[2])),
    "chaos": lambda a: gate_chaos(load(a[0])),
    "serve-fault": lambda a: gate_serve_fault(load(a[0])),
    "serve": lambda a: gate_serve(load(a[0]), load(a[1]), load(a[2]),
                                  read_text(a[3]).splitlines(), load(a[4]),
                                  [read_text(p) for p in a[5:]]),
    "schema": lambda a: gate_schema(read_text(a[0]),
                                    [(p, read_text(p)) for p in a[1:]]),
}


# ---- self-test --------------------------------------------------------------

TABLE, ETABLE, PTABLE, STABLE = (
    {name: {"kind": "gauge" if name == "workers_failed" else "counter",
            "merge": merge, "unit": "x"} for name, merge in rows.items()}
    for rows in (COUNTER_ROWS, ENGINE_ROWS, PUBLISHER_ROWS, SOCKET_ROWS))


def counters(packets, version):
    return dict(dict.fromkeys(COUNTER_ROWS, 0), packets=packets,
                snapshot_version=version)


def zeros(pinned, **rows):
    return dict(dict.fromkeys(pinned, 0), **rows)


def engine(**rows):
    return zeros(ENGINE_ROWS, **rows)


SERVE_PUB = zeros(PUBLISHER_ROWS, version=70, publishes=70, grace_spins=3,
                  standby_copies=1)
SERVE_SOCK = zeros(
    SOCKET_ROWS, updates_accepted=40, visibility_samples=39,
    visibility_unresolved=1, cmd_to_first_total_ns=39, cmd_to_first_max_ns=1,
    cmd_to_all_total_ns=78, cmd_to_all_max_ns=2,
    publish_to_first_total_ns=39, publish_to_first_max_ns=1)


def prom(rows, labels="", tab=ETABLE, prefix="pclass_"):
    return "".join(f"# TYPE {family(n, s, prefix)} {s['kind']}\n"
                   f"{family(n, s, prefix)}{labels} {rows[n]}\n"
                   for n, s in tab.items())


def scenario(name, mpps=1.0, packets=10, version=3, shards=(), ts=(),
             ups=0.0, applied=0):
    return {**counters(packets, version),
            "name": name, "ok": True, "error": "", "throughput_mpps": mpps,
            "packets_processed": packets,
            "oracle": {"mismatches": 0, "checked": packets},
            "updates": {"applied": applied, "per_second": ups},
            "shards": list(shards), "engine": engine(offered_packets=packets),
            "publisher": zeros(PUBLISHER_ROWS),
            "telemetry": {"timeseries": list(ts), "update_visibility":
                          {"samples": 2, "mean_ns": 5.0, "max_ns": 9}}}


def report(alg, *scenarios, workers=4):
    return {"schema": SCENARIO_SCHEMA, "counters": TABLE,
            "engine_counters": ETABLE, "publisher_counters": PTABLE,
            "all_ok": True,
            "options": {"ip_algorithm": alg, "workers": workers},
            "scenarios": list(scenarios)}


def rows(*pairs):
    return [counters(p, v) for p, v in pairs]


def self_test():
    """Each gate passes its fixture and fails every violation of it."""
    def storm(mpps, ups):
        return [report("X", scenario("update-storm", mpps, ups=ups),
                       scenario("update-storm-multi", mpps))] * 3

    sharded = rows((6, 3), (4, 2), (0, 0), (0, 0))
    cases = {
        "backends": ((report("MBT", scenario("fw-like", 2.0)),
                      report("RVH", scenario("fw-like", 1.0)),
                      storm(1.0, 100.0), storm(1.0, 120.0)),
                     lambda a: a.__setitem__(3, storm(1.0, 90.0))),
        "shards": ((report("MBT", scenario("fw-like", shards=sharded),
                           scenario("chaos", shards=sharded)),),
                   lambda a: a[0]["scenarios"][0]["shards"][0].update(
                       packets=7),
                   lambda a: a[0]["scenarios"][1]["shards"].pop(),
                   lambda a: a[0]["scenarios"][0]["oracle"].update(
                       mismatches=1)),
        "telemetry": ((report("MBT", scenario(
                          "fw-like", ts=rows((7, 2), (3, 3)))),
                       {"traceEvents": [
                           {"name": "process_name", "pid": 1,
                            "args": {"name": "fw-like"}},
                           {"ph": "X", "pid": 1, "tid": 0}]},
                       "pclass_packets_total 1\n"
                       "pclass_update_visibility_mean_ns 1\n" +
                       prom(engine(offered_packets=10),
                            '{scenario="fw-like"}')),
                      lambda a: a[0]["scenarios"][0]["telemetry"][
                          "timeseries"][1].update(snapshot_version=4),
                      lambda a: a.__setitem__(
                          2, a[2] + "pclass_packets_total 2\n"),
                      lambda a: a[0]["scenarios"][0]["engine"].update(
                          offered_packets=11)),
        "chaos": ((report("MBT", {
                      "ok": True, "error": "", "cache_hits": 3,
                      "oracle": {"mismatches": 0, "checked": 5},
                      "conservation": {"checked": True, "conserved": True},
                      "engine": engine(worker_restarts=1, shards_reassigned=1,
                                       workers_failed=1, stall_detections=1,
                                       offered_packets=9, delivered_packets=7,
                                       shed_packets=1, lost_packets=1),
                      "fault": {"injected": {"worker_throws": 1,
                                             "worker_stalls": 1,
                                             "publish_failures": 1}}}),),
                  lambda a: a[0]["scenarios"][0]["engine"].update(
                      shed_packets=2),
                  lambda a: a[0]["scenarios"][0].update(cache_hits=0),
                  lambda a: a[0]["scenarios"][0]["engine"].update(
                      stall_detections=0),
                  lambda a: a[0]["scenarios"][0]["fault"]["injected"].update(
                      worker_stalls=0)),
        "serve-fault": (({"schema": LIVE_STATS_SCHEMA,
                          "engine": engine(supervisor=True,
                                           worker_restarts=1)},),
                        lambda a: a[0]["engine"].update(workers_failed=1)),
        "serve": (({"schema": SERVE_SCHEMA, "counters": TABLE,
                    "engine_counters": ETABLE, "publisher_counters": PTABLE,
                    "socket_counters": STABLE,
                    "engine": engine(worker_restarts=2),
                    "publisher": SERVE_PUB,
                    "socket": dict(SERVE_SOCK, connections_accepted=3),
                    "meta": {"build": {"version": "1"}},
                    "totals": counters(10, 3),
                    "timeseries": [dict(counters(6, 2), interval_ns=1),
                                   dict(counters(4, 3), interval_ns=1)]},
                   {"schema": LIVE_STATS_SCHEMA, "drained": True,
                    "totals": counters(10, 3),
                    "engine": engine(worker_restarts=2),
                    "publisher": dict(SERVE_PUB), "socket": dict(SERVE_SOCK)},
                   {"mismatches": 0, "checked": 5, "rules": 41},
                   ['{"interval_ns": 5, "packets": 1}', '{"terminal": true}'],
                   {"traceEvents": [{}]},
                   ['pclass_live_packets_total{worker="0"} 4\n',
                    'pclass_live_packets_total{worker="0"} 10\n' +
                    prom(engine(worker_restarts=2)) +
                    prom(SERVE_PUB, "", PTABLE, "pclass_publisher_") +
                    prom(SERVE_SOCK, "", STABLE, "pclass_socket_")]),
                  lambda a: a[1]["totals"].update(snapshot_version=2),
                  lambda a: a[1]["engine"].update(worker_restarts=1),
                  lambda a: a[5].__setitem__(-1, a[5][-1].replace(
                      "# TYPE pclass_workers_failed gauge",
                      "# TYPE pclass_workers_failed counter")),
                  lambda a: a[1]["publisher"].update(grace_spins=4),
                  lambda a: a[1]["publisher"].update(standby_copies=2),
                  lambda a: a[1]["socket"].update(cmd_to_first_max_ns=2),
                  lambda a: a[5].__setitem__(-1, a[5][-1].replace(
                      "pclass_socket_cmd_to_first_max_ns_total 1\n", ""))),
    }
    good = report("MBT", scenario("fw-like", shards=rows((1, 1)),
                                  ts=rows((1, 1))))
    good["documented"] = dict.fromkeys(SCENARIO_KEYS, 0)
    bad = copy.deepcopy(good)
    del bad["scenarios"][0]["shards"][0]["snapshot_version"]
    serve_rep = {"engine": engine(), "errors": [], "counters": TABLE,
                 "engine_counters": ETABLE, "publisher_counters": PTABLE,
                 "socket_counters": STABLE, "totals": counters(0, 0),
                 "publisher": zeros(PUBLISHER_ROWS),
                 "socket": zeros(SOCKET_ROWS)}
    serve = json.dumps(serve_rep)
    unrendered_serve = copy.deepcopy(serve_rep)
    del unrendered_serve["engine"]["stall_detections"]
    unrendered_sock = copy.deepcopy(serve_rep)
    del unrendered_sock["socket"]["cmd_to_first_max_ns"]

    def text(rep):
        return [("r.json", json.dumps(rep, separators=(",", ":")))]

    unpinned = copy.deepcopy(good)
    del unpinned["counters"]["cache_misses"]  # a row left the table
    dropped = copy.deepcopy(good)
    del dropped["engine_counters"]["lost_packets"]  # an engine row left
    unrendered = copy.deepcopy(good)
    del unrendered["scenarios"][0]["engine"]["shed_packets"]
    unpublished = copy.deepcopy(good)
    del unpublished["scenarios"][0]["publisher"]["grace_spins"]
    uncopied = copy.deepcopy(good)
    del uncopied["scenarios"][0]["publisher"]["standby_copies"]
    cases["schema"] = (
        (serve, text(good)),
        lambda a: a.__setitem__(1, text(bad)),
        lambda a: a.__setitem__(1, text(unpinned)),
        lambda a: a.__setitem__(1, text(dropped)),
        lambda a: a.__setitem__(1, text(unrendered)),
        lambda a: a.__setitem__(1, text(unpublished)),
        lambda a: a.__setitem__(1, text(uncopied)),
        lambda a: a.__setitem__(0, serve.replace('"cache_misses"', '"x"')),
        lambda a: a.__setitem__(0, json.dumps(unrendered_serve)),
        lambda a: a.__setitem__(0, json.dumps(unrendered_sock)))
    assert cases.keys() == COMMANDS.keys()
    for name, (args, *violations) in cases.items():
        gate = globals()["gate_" + name.replace("-", "_")]
        gate(*copy.deepcopy(args))
        for violate in violations:
            broken = list(copy.deepcopy(args))
            violate(broken)
            try:
                gate(*broken)
            except AssertionError as e:
                print(f"self-test {name}: violation caught ({e})")
            else:
                raise AssertionError(f"self-test {name}: violation not caught")
    print(f"self-test: {len(cases)} gates ok")


def main(argv):
    if argv == ["--self-test"]:
        self_test()
        return 0
    if not argv or argv[0] not in COMMANDS:
        print(__doc__, file=sys.stderr)
        return 2
    COMMANDS[argv[0]](argv[1:])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
