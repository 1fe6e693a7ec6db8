#!/usr/bin/env python3
"""CI gates over the reports pclass_scenario and pclass_serve write.

One subcommand per gate (see each gate_* docstring); a broken invariant
raises AssertionError and the exit status is nonzero:

  check_report.py backends MBT RVH STORM_MBT STORM_RVH
  check_report.py shards UNSHARDED REPLICA ZIPF_UNSHARDED ZIPF_REPLICA
  check_report.py telemetry REPORT TRACE METRICS
  check_report.py chaos REPORT
  check_report.py serve-fault STATS
  check_report.py serve REPORT STATS VERIFY SUBSCRIBE TRACE SCRAPE...
  check_report.py schema SERVE_REPORT SCENARIO_REPORT...
  check_report.py --self-test    # every gate must catch a violation

STORM_*/ZIPF_* are best-of-3 prefixes (PREFIX_1.json .. PREFIX_3.json);
the SCRAPEs are in time order, the last taken after drain. Each report
carries its counter table (`counters`: name -> kind/merge/unit); the
gates require it to be COUNTER_ROWS and fold every row by its merge rule.
"""

import copy
import json
import math
import sys

SCENARIO_SCHEMA = "pclass-scenarios-v5"
SERVE_SCHEMA = "pclass-serve-v1"
# Documented scenario-report keys besides the counter rows.
SCENARIO_KEYS = (
    "ip_algorithm", "max_workers", "stats_interval_ms", "update-storm-multi",
    "telemetry", "timeseries", "update_visibility", "trace_events_dropped",
    "errors", "shards", "steer_hash",
    "steer_symmetric", "fault_plan", "fault", "worker_restarts",
    "stall_detections", "shards_reassigned", "workers_failed", "injected",
    "conservation", "conserved", "shed", "lost_in_flight", "lookup_cycles",
    "oracle", "all_ok")
SERVE_KEYS = ("supervisor", "worker_restarts", "errors")
# The rows of PCLASS_WORKER_COUNTERS (src/telemetry/counters.hpp) and
# their merge rules, pinned so that a row deleted or renamed there fails
# the gates instead of leaving the table and every surface together.
COUNTER_ROWS = {
    "packets": "sum", "batches": "sum", "matched": "sum", "dropped": "sum",
    "parse_errors": "sum", "cache_hits": "sum", "cache_misses": "sum",
    "classifier_lookups": "sum", "memory_accesses": "sum",
    "snapshot_version": "max", "update_visibility_samples": "sum",
    "update_visibility_total_ns": "sum", "update_visibility_max_ns": "max"}


def load(path):
    with open(path) as f:
        return json.load(f)


def best_of_3(prefix):
    return [load(f"{prefix}_{i}.json") for i in (1, 2, 3)]


def by_name(rep):
    return {s["name"]: s for s in rep["scenarios"]}


def counter_table(rep, what):
    """The report's counter table, checked against COUNTER_ROWS."""
    table = rep["counters"]
    got = {name: spec["merge"] for name, spec in table.items()}
    assert got == COUNTER_ROWS, f"schema drift: {what} counter table " \
        f"differs from COUNTER_ROWS on {sorted(got.items() ^ COUNTER_ROWS.items())}"
    return table


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


def gate_shards(u_rep, r_rep, zipf_unsharded, zipf_replica):
    """Every leg ok and oracle-clean; finite scenarios verdict-identical
    across legs; shard rows: none unsharded (chaos provisions its own 4),
    4 under --shards 4, merging to the scenario's value on every counter
    row; zipf-locality replica best-of-3 Mpps >= unsharded best-of-3."""
    u, r = by_name(u_rep), by_name(r_rep)
    assert u.keys() == r.keys()
    for name in u:
        for leg, s in (("unsharded", u[name]), ("replica", r[name])):
            assert s["ok"], f"{name} ({leg}): not ok: {s['error']}"
            assert s["oracle"]["mismatches"] == 0, \
                f"{name} ({leg}): oracle mismatches"
        assert len(u[name]["shards"]) == (4 if name == "chaos" else 0), \
            f"{name}: unsharded leg has {len(u[name]['shards'])} shard rows"
        assert len(r[name]["shards"]) == 4, f"{name}: replica shard rows missing"
        finite = u[name]["updates"]["applied"] == 0
        if finite:
            for key in ("packets_processed", "matched"):
                vals = (u[name][key], r[name][key])
                assert len(set(vals)) == 1, \
                    f"{name}: {key} differs across legs: {vals}"
        expect_fold(counter_table(r_rep, "replica"), r[name]["shards"], r[name],
                    f"{name}: shards")
        print(f"{name}: ok ({'verdict-identical' if finite else 'loop-mode'})")
    zu = max(rep["scenarios"][0]["throughput_mpps"] for rep in zipf_unsharded)
    zr = max(rep["scenarios"][0]["throughput_mpps"] for rep in zipf_replica)
    print(f"zipf-locality full scale: unsharded {zu:.2f} Mpps,"
          f" replica {zr:.2f} Mpps")
    assert zr >= zu, \
        f"replica zipf Mpps {zr:.2f} < unsharded {zu:.2f} at equal workers"


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
    for m in ("pclass_packets_total", "pclass_update_visibility_mean_ns",
              "pclass_trace_events_dropped_total"):
        assert m in metrics, f"{m} missing from the metrics dump"
    families = metric_families(metrics)
    split = sorted({f for f in families if families.count(f) > 1})
    assert not split, f"metrics families not contiguous: {split}"
    print(f"trace: {len(spans)} spans, {len(procs)} processes, "
          f"{len(tracks)} tracks — all delta sums exact")


def gate_chaos(rep):
    """Oracle-clean, exact conservation, and the seeded faults healed."""
    s = rep["scenarios"][0]
    assert s["ok"], f"chaos not ok: {s['error']}"
    assert s["oracle"]["mismatches"] == 0 and s["oracle"]["checked"] > 0
    c = s["conservation"]
    assert c["checked"] and c["conserved"], c
    assert c["delivered"] + c["shed"] + c["lost_in_flight"] == c["offered"], c
    f = s["fault"]
    assert f["worker_restarts"] >= 1, f
    assert f["shards_reassigned"] >= 1, f
    assert f["workers_failed"] >= 1, f
    assert f["injected"]["worker_throws"] >= 1, f
    assert f["injected"]["publish_failures"] >= 1, f
    print(f"chaos: conservation {c}, oracle {s['oracle']}, fault {f}")


def gate_serve_fault(stats):
    """The supervised daemon restarted its killed worker, none failed."""
    sup = stats["supervisor"]
    assert sup["enabled"], sup
    assert sup["worker_restarts"] >= 1, sup
    assert sup["workers_failed"] == 0, sup
    print(f"daemon self-healed: restarts={sup['worker_restarts']}")


def live_total(scrape, family="pclass_live_packets_total"):
    return sum(int(float(line.rsplit(" ", 1)[1]))
               for line in scrape.splitlines()
               if line.startswith(family + "{"))


def gate_serve(rep, live, verify, sub_lines, trace, scrapes):
    """Live packet scrapes monotone (the last after drain, equal to the
    report); post-drain `read stats` totals == report totals == merged
    timeseries on every counter row; all 40 socket updates accounted,
    resolved ones with finite nonzero visibility latency; verify clean;
    subscription rows and a trace capture present."""
    seen = [live_total(s) for s in scrapes]
    assert all(b >= a for a, b in zip(seen, seen[1:])), \
        f"live packet scrapes not monotone: {seen}"
    assert seen[-1] > seen[0] > 0, f"daemon classified nothing: {seen}"
    assert rep["schema"] == SERVE_SCHEMA
    assert rep["meta"]["build"]["version"]
    totals = rep["totals"]
    assert live["drained"] is True
    table = counter_table(rep, "serve")
    for name in table:
        assert live["totals"][name] == totals[name], \
            f"post-drain scrape {name}={live['totals'][name]} != report {totals[name]}"
    expect_fold(table, rep["timeseries"], totals, "report timeseries")
    assert seen[-1] == totals["packets"], \
        "final Prometheus scrape disagrees with the report"
    sock = rep["socket"]
    assert sock["updates_accepted"] == 40, sock
    vis = sock["visibility"]
    assert vis["samples"] > 0 and vis["pending"] == 0, vis
    assert vis["samples"] + vis["unresolved"] == 40, vis
    for key in ("cmd_to_first_mean_ns", "cmd_to_all_mean_ns",
                "publish_to_first_mean_ns"):
        assert vis[key] > 0 and math.isfinite(vis[key]), (key, vis)
    assert vis["cmd_to_all_max_ns"] >= vis["cmd_to_first_max_ns"]
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


def gate_schema(serve_text, scenario_texts):
    """Schema ids and documented keys present; every report's counter
    table is COUNTER_ROWS, each row on every scenario, shard and
    timeseries row of a scenario report."""
    for key in SERVE_KEYS:
        assert f'"{key}"' in serve_text, \
            f"schema drift: {key} missing from the serve report"
    counter_table(json.loads(serve_text), "serve")
    for path, text in scenario_texts:
        assert f'"schema":"{SCENARIO_SCHEMA}"' in text, \
            f"schema drift: {SCENARIO_SCHEMA} missing from {path}"
        for key in SCENARIO_KEYS:
            assert f'"{key}"' in text, f"schema drift: {key} missing from {path}"
        rep = json.loads(text)
        table = counter_table(rep, path)
        for s in rep["scenarios"]:
            for row in [s] + s["shards"] + s["telemetry"]["timeseries"]:
                missing = [n for n in table if n not in row]
                assert not missing, \
                    f"schema drift: {missing} missing from a {s['name']} row in {path}"
    print(f"schema: {len(scenario_texts)} scenario reports + serve report ok")


# ---- command line -----------------------------------------------------------

def read_text(path):
    with open(path) as f:
        return f.read()


COMMANDS = {
    "backends": lambda a: gate_backends(load(a[0]), load(a[1]),
                                        best_of_3(a[2]), best_of_3(a[3])),
    "shards": lambda a: gate_shards(load(a[0]), load(a[1]),
                                    best_of_3(a[2]), best_of_3(a[3])),
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

TABLE = {name: {"kind": "counter", "merge": merge, "unit": "x"}
         for name, merge in COUNTER_ROWS.items()}


def counters(packets, version):
    return dict(dict.fromkeys(COUNTER_ROWS, 0), packets=packets,
                snapshot_version=version)


def scenario(name, mpps=1.0, packets=10, version=3, shards=(), ts=(),
             ups=0.0, applied=0):
    return {**counters(packets, version),
            "name": name, "ok": True, "error": "", "throughput_mpps": mpps,
            "packets_processed": packets,
            "oracle": {"mismatches": 0, "checked": packets},
            "updates": {"applied": applied, "per_second": ups},
            "shards": list(shards),
            "telemetry": {"timeseries": list(ts), "update_visibility":
                          {"samples": 2, "mean_ns": 5.0, "max_ns": 9}}}


def report(alg, *scenarios):
    return {"schema": SCENARIO_SCHEMA, "counters": TABLE, "all_ok": True,
            "options": {"ip_algorithm": alg}, "scenarios": list(scenarios)}


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
        "shards": ((report("MBT", scenario("fw-like")),
                    report("MBT", scenario("fw-like", shards=sharded)),
                    [report("MBT", scenario("zipf-locality", 1.0))] * 3,
                    [report("MBT", scenario("zipf-locality", 1.5))] * 3),
                   lambda a: a[1]["scenarios"][0]["shards"][0].update(
                       packets=7)),
        "telemetry": ((report("MBT", scenario(
                          "fw-like", ts=rows((7, 2), (3, 3)))),
                       {"traceEvents": [
                           {"name": "process_name", "pid": 1,
                            "args": {"name": "fw-like"}},
                           {"ph": "X", "pid": 1, "tid": 0}]},
                       "pclass_packets_total 1\n"
                       "pclass_update_visibility_mean_ns 1\n"
                       "pclass_trace_events_dropped_total 0\n"),
                      lambda a: a[0]["scenarios"][0]["telemetry"][
                          "timeseries"][1].update(snapshot_version=4),
                      lambda a: a.__setitem__(
                          2, a[2] + "pclass_packets_total 2\n")),
        "chaos": ((report("MBT", {
                      "ok": True, "error": "",
                      "oracle": {"mismatches": 0, "checked": 5},
                      "conservation": {"checked": True, "conserved": True,
                                       "offered": 9, "delivered": 7,
                                       "shed": 1, "lost_in_flight": 1},
                      "fault": {"worker_restarts": 1, "stall_detections": 1,
                                "shards_reassigned": 1, "workers_failed": 1,
                                "injected": {"worker_throws": 1,
                                             "publish_failures": 1}}}),),
                  lambda a: a[0]["scenarios"][0]["conservation"].update(
                      shed=2)),
        "serve-fault": (({"supervisor": {"enabled": True,
                                         "worker_restarts": 1,
                                         "workers_failed": 0}},),
                        lambda a: a[0]["supervisor"].update(workers_failed=1)),
        "serve": (({"schema": SERVE_SCHEMA, "counters": TABLE,
                    "meta": {"build": {"version": "1"}},
                    "totals": counters(10, 3),
                    "timeseries": [dict(counters(6, 2), interval_ns=1),
                                   dict(counters(4, 3), interval_ns=1)],
                    "socket": {"updates_accepted": 40, "visibility": {
                        "samples": 39, "unresolved": 1, "pending": 0,
                        "cmd_to_first_mean_ns": 1.0,
                        "cmd_to_all_mean_ns": 2.0,
                        "publish_to_first_mean_ns": 1.0,
                        "cmd_to_first_max_ns": 1, "cmd_to_all_max_ns": 2}}},
                   {"drained": True, "totals": counters(10, 3)},
                   {"mismatches": 0, "checked": 5, "rules": 41},
                   ['{"interval_ns": 5, "packets": 1}', '{"terminal": true}'],
                   {"traceEvents": [{}]},
                   ['pclass_live_packets_total{worker="0"} 4\n',
                    'pclass_live_packets_total{worker="0"} 10\n']),
                  lambda a: a[1]["totals"].update(snapshot_version=2)),
    }
    good = report("MBT", scenario("fw-like", shards=rows((1, 1)),
                                  ts=rows((1, 1))))
    good["documented"] = dict.fromkeys(SCENARIO_KEYS, 0)
    bad = copy.deepcopy(good)
    del bad["scenarios"][0]["shards"][0]["snapshot_version"]
    serve = json.dumps({"supervisor": {"worker_restarts": 0}, "errors": [],
                        "counters": TABLE})

    def text(rep):
        return [("r.json", json.dumps(rep, separators=(",", ":")))]

    unpinned = copy.deepcopy(good)
    del unpinned["counters"]["cache_misses"]  # a row left the table
    cases["schema"] = (
        (serve, text(good)),
        lambda a: a.__setitem__(1, text(bad)),
        lambda a: a.__setitem__(1, text(unpinned)),
        lambda a: a.__setitem__(0, serve.replace('"cache_misses"', '"x"')))
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
