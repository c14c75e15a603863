#!/usr/bin/env python3
"""Validates BENCH_*.json artifacts emitted by bench/bench_harness.h.

Usage: check_bench_json.py FILE [FILE...]

Checks each file against the schema (version 1) described in
docs/observability.md:

  {
    "schema_version": 1,
    "name": str,
    "env": {"quick": bool, ...},
    "points": [
      {"kind": "benchmark", "name": str, "iterations": int,
       "real_time_ns": num, "cpu_time_ns": num, "metrics": {str: num}},
      {"kind": "sweep", "name": str, "metrics": {str: num}},
      ...
    ]
  }

Exits 0 when every file validates, 1 otherwise (one line per problem).
"""

import json
import numbers
import sys


def fail(path, msg, problems):
    problems.append(f"{path}: {msg}")


def check_point(path, i, point, problems):
    where = f"points[{i}]"
    if not isinstance(point, dict):
        fail(path, f"{where} is not an object", problems)
        return
    kind = point.get("kind")
    if kind not in ("benchmark", "sweep"):
        fail(path, f"{where}.kind is {kind!r}, want 'benchmark' or 'sweep'",
             problems)
        return
    name = point.get("name")
    if not isinstance(name, str) or not name:
        fail(path, f"{where}.name missing or empty", problems)
    metrics = point.get("metrics")
    if not isinstance(metrics, dict):
        fail(path, f"{where}.metrics missing or not an object", problems)
    else:
        for key, value in metrics.items():
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                fail(path, f"{where}.metrics[{key!r}] is not a number",
                     problems)
    if kind == "benchmark":
        iterations = point.get("iterations")
        if not isinstance(iterations, int) or isinstance(iterations, bool) \
                or iterations <= 0:
            fail(path, f"{where}.iterations missing or not a positive int",
                 problems)
        for field in ("real_time_ns", "cpu_time_ns"):
            value = point.get(field)
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                fail(path, f"{where}.{field} missing or not a number",
                     problems)
            elif value < 0:
                fail(path, f"{where}.{field} is negative", problems)


# Artifact-specific requirements, keyed by the artifact's "name". The
# remote_cache sweep is the acceptance evidence of the snapshot cache, so
# its locality rows and their metric keys are part of the contract: a
# refactor that silently drops a row or renames a metric must fail CI.
REMOTE_CACHE_LOCALITIES = ("f0.00", "f0.10", "f0.50", "f1.00")
REMOTE_CACHE_METRICS = (
    "locality",
    "constraints",
    "updates",
    "remote_trips_off",
    "remote_trips_on",
    "trip_reduction",
    "cache_hits",
    "cached_tuples",
    "sim_cost_off",
    "sim_cost_on",
    "ns_per_update_on",
)


# The overload sweep is the acceptance evidence of execution budgets:
# budgeted rows must exist next to their unbudgeted baselines, each
# carrying the full accounting so a regression that stops shedding (or
# stops completing) is visible in CI.
OVERLOAD_ROWS = (
    "overload/L8/d0",
    "overload/L8/d2",
    "overload/L32/d0",
    "overload/L32/d2",
    "overload/L32/rounds4",
)
OVERLOAD_METRICS = (
    "load",
    "deadline_ms",
    "admitted",
    "completed",
    "shed",
    "goodput_per_sec",
    "shed_rate",
    "p50_check_ns",
    "p99_check_ns",
)


def check_overload(path, doc, problems):
    sweeps = [p for p in doc.get("points", [])
              if isinstance(p, dict) and p.get("kind") == "sweep"
              and isinstance(p.get("name"), str)]
    names = {p["name"] for p in sweeps}
    for row in OVERLOAD_ROWS:
        if row not in names:
            fail(path, f"overload: missing sweep row {row!r}", problems)
    for point in sweeps:
        metrics = point.get("metrics")
        if not isinstance(metrics, dict):
            continue  # already reported by check_point
        for key in OVERLOAD_METRICS:
            if key not in metrics:
                fail(path,
                     f"overload: sweep {point['name']!r} missing "
                     f"metric {key!r}", problems)
        admitted = metrics.get("admitted")
        completed = metrics.get("completed")
        shed = metrics.get("shed")
        if all(isinstance(v, numbers.Real) and not isinstance(v, bool)
               for v in (admitted, completed, shed)):
            if admitted != completed + shed:
                fail(path,
                     f"overload: sweep {point['name']!r} accounting does "
                     f"not balance (admitted {admitted} != completed "
                     f"{completed} + shed {shed})", problems)


def check_remote_cache(path, doc, problems):
    sweeps = [p for p in doc.get("points", [])
              if isinstance(p, dict) and p.get("kind") == "sweep"
              and isinstance(p.get("name"), str)]
    for locality in REMOTE_CACHE_LOCALITIES:
        rows = [p for p in sweeps if f"/{locality}/" in p["name"]]
        if not rows:
            fail(path, f"remote_cache: no locality sweep row for {locality}",
                 problems)
    for point in sweeps:
        metrics = point.get("metrics")
        if not isinstance(metrics, dict):
            continue  # already reported by check_point
        for key in REMOTE_CACHE_METRICS:
            if key not in metrics:
                fail(path,
                     f"remote_cache: sweep {point['name']!r} missing "
                     f"metric {key!r}", problems)
        # The uncached baseline counts logical reads: one per remote
        # relation per tier-3 check, and each update runs at most one
        # check per constraint. A return to per-probe billing reads
        # hundreds of times more and fails here.
        try:
            reads = metrics["remote_trips_off"]
            bound = metrics["updates"] * metrics["constraints"]
        except (KeyError, TypeError):
            continue  # a missing metric is reported above
        if reads > bound:
            fail(path,
                 f"remote_cache: sweep {point['name']!r} remote_trips_off "
                 f"{reads} exceeds updates x constraints ({bound}): more "
                 "than one logical read per relation per check", problems)


# The topology sweep is the acceptance evidence of the N-site sharded
# distsim: batching rows pin the per-site trip coalescing, outage rows pin
# partial degradation and the recovery protocol (deferred drain, site
# recovery events, poisoned-cache revalidation, nothing pending).
TOPOLOGY_ROWS = (
    "topology/batch/s1",
    "topology/batch/s2",
    "topology/batch/s4",
    "topology/outage/s1/c0",
    "topology/outage/s1/c1",
    "topology/outage/s2/c0",
    "topology/outage/s2/c1",
    "topology/outage/s4/c0",
    "topology/outage/s4/c1",
    "topology/latency/s4/neutral",
    "topology/latency/s4/skew/unhedged",
    "topology/latency/s4/skew/hedged",
)
TOPOLOGY_BATCH_METRICS = (
    "sites",
    "remote_trips",
    "cache_hits",
    "remote_tuples",
    "cost",
)
TOPOLOGY_OUTAGE_METRICS = (
    "sites",
    "correlation",
    "deferred",
    "fast_fails",
    "recovered",
    "late_violations",
    "sites_recovered",
    "revalidated",
    "pending",
    "partial_updates",
    "blocked_updates",
)
# Latency rows pin hedged batched reads: hedging must engage (and win)
# only on the armed slow-tail config, bill exactly one extra trip per
# issued hedge (issued == won + wasted), and flatten the tail — the
# hedged p99 may never exceed the unhedged p99 of the same skew.
TOPOLOGY_LATENCY_METRICS = (
    "p50_us",
    "p99_us",
    "remote_trips",
    "hedges_issued",
    "hedges_won",
    "hedges_wasted",
)


def check_topology(path, doc, problems):
    sweeps = [p for p in doc.get("points", [])
              if isinstance(p, dict) and p.get("kind") == "sweep"
              and isinstance(p.get("name"), str)]
    names = {p["name"] for p in sweeps}
    for row in TOPOLOGY_ROWS:
        if row not in names:
            fail(path, f"topology: missing sweep row {row!r}", problems)
    for point in sweeps:
        metrics = point.get("metrics")
        if not isinstance(metrics, dict):
            continue  # already reported by check_point
        if point["name"].startswith("topology/batch/"):
            wanted = TOPOLOGY_BATCH_METRICS
        elif point["name"].startswith("topology/latency/"):
            wanted = TOPOLOGY_LATENCY_METRICS
        else:
            wanted = TOPOLOGY_OUTAGE_METRICS
        for key in wanted:
            if key not in metrics:
                fail(path,
                     f"topology: sweep {point['name']!r} missing "
                     f"metric {key!r}", problems)
        if point["name"].startswith("topology/latency/"):
            issued = metrics.get("hedges_issued")
            won = metrics.get("hedges_won")
            wasted = metrics.get("hedges_wasted")
            if all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                   for v in (issued, won, wasted)):
                if issued != won + wasted:
                    fail(path,
                         f"topology: sweep {point['name']!r} hedge "
                         f"accounting does not balance (issued {issued} != "
                         f"won {won} + wasted {wasted})", problems)
                if not point["name"].endswith("/skew/hedged") and issued != 0:
                    fail(path,
                         f"topology: sweep {point['name']!r} issued "
                         f"{issued} hedges with hedging off", problems)
        if point["name"].startswith("topology/outage/"):
            pending = metrics.get("pending")
            if isinstance(pending, numbers.Real) and pending != 0:
                fail(path,
                     f"topology: sweep {point['name']!r} left {pending} "
                     f"deferred checks pending after recovery", problems)
            sites = metrics.get("sites")
            recovered = metrics.get("sites_recovered")
            if (isinstance(sites, numbers.Real)
                    and isinstance(recovered, numbers.Real)
                    and sites > 1 and recovered == 0):
                fail(path,
                     f"topology: sweep {point['name']!r} observed no site "
                     f"recoveries in a multi-site outage run", problems)
    by_name = {p["name"]: p.get("metrics") for p in sweeps
               if isinstance(p.get("metrics"), dict)}
    hedged = by_name.get("topology/latency/s4/skew/hedged")
    unhedged = by_name.get("topology/latency/s4/skew/unhedged")
    if hedged and unhedged:
        issued = hedged.get("hedges_issued")
        won = hedged.get("hedges_won")
        if isinstance(issued, numbers.Real) and issued <= 0:
            fail(path,
                 "topology: hedged slow-tail row issued no hedges "
                 "(hedging never engaged)", problems)
        if isinstance(won, numbers.Real) and won <= 0:
            fail(path,
                 "topology: hedged slow-tail row won no hedges "
                 "(backup trips never beat the slow primary)", problems)
        p99_h = hedged.get("p99_us")
        p99_u = unhedged.get("p99_us")
        if (isinstance(p99_h, numbers.Real)
                and isinstance(p99_u, numbers.Real) and p99_h > p99_u):
            fail(path,
                 f"topology: hedged p99 ({p99_h}us) exceeds unhedged p99 "
                 f"({p99_u}us) on the slow-tail config", problems)


# The plan_cache sweep is the acceptance evidence of the compiled-plan
# cache: the recheck rows must show the cached re-check episodes of a warm
# run beating its cold-compile episode, and the locality rows must carry
# hit/compile counts so a cache that silently stops serving hits fails CI.
PLAN_CACHE_LOCALITIES = ("f0.00", "f0.50", "f0.90", "f1.00")
PLAN_CACHE_RECHECK_METRICS = (
    "constraints",
    "episodes",
    "ns_per_update",
    "ns_first_episode",
    "ns_recheck_episode",
    "episode_speedup",
    "plan_hits",
    "plan_compiles",
)
PLAN_CACHE_LOCALITY_METRICS = (
    "locality",
    "constraints",
    "updates",
    "ns_per_update",
    "plan_hits",
    "plan_compiles",
    "hit_rate",
)


def check_plan_cache(path, doc, problems):
    sweeps = [p for p in doc.get("points", [])
              if isinstance(p, dict) and p.get("kind") == "sweep"
              and isinstance(p.get("name"), str)]
    recheck = [p for p in sweeps if p["name"].startswith("recheck/")]
    if not recheck:
        fail(path, "plan_cache: no recheck sweep rows", problems)
    for locality in PLAN_CACHE_LOCALITIES:
        if not any(f"/{locality}/" in p["name"] for p in sweeps):
            fail(path, f"plan_cache: no locality sweep row for {locality}",
                 problems)
    for point in sweeps:
        metrics = point.get("metrics")
        if not isinstance(metrics, dict):
            continue  # already reported by check_point
        wanted = (PLAN_CACHE_RECHECK_METRICS
                  if point["name"].startswith("recheck/")
                  else PLAN_CACHE_LOCALITY_METRICS)
        for key in wanted:
            if key not in metrics:
                fail(path,
                     f"plan_cache: sweep {point['name']!r} missing "
                     f"metric {key!r}", problems)
        if not point["name"].startswith("recheck/"):
            continue
        hits = metrics.get("plan_hits")
        if isinstance(hits, numbers.Real) and hits <= 0:
            fail(path,
                 f"plan_cache: sweep {point['name']!r} served no cache "
                 f"hits", problems)
        episode_speedup = metrics.get("episode_speedup")
        if isinstance(episode_speedup, numbers.Real) and episode_speedup < 5.0:
            fail(path,
                 f"plan_cache: sweep {point['name']!r} cached re-check "
                 f"episodes are less than 5x faster than the compile "
                 f"episode (got {episode_speedup})", problems)


# The episode_pipeline sweep is the acceptance evidence of the pipelined
# episode scheduler: low-conflict re-check rows must show the pipeline
# beating depth 1 (at least break-even at depth 2, at least 2x from depth
# 4 up), and every row's pipeline accounting must balance — every
# admitted episode retires through the commit turn.
EPISODE_PIPELINE_ROWS = tuple(
    f"pipeline/{regime}/t{threads}/d{depth}"
    for regime in ("low", "high")
    for threads in (4, 8)
    for depth in (1, 2, 4, 8))
EPISODE_PIPELINE_METRICS = (
    "depth",
    "threads",
    "high_conflict",
    "episodes",
    "trip_latency_us",
    "ns_total",
    "episodes_per_sec",
    "speedup_vs_depth1",
    "admitted",
    "committed",
)


def check_episode_pipeline(path, doc, problems):
    sweeps = [p for p in doc.get("points", [])
              if isinstance(p, dict) and p.get("kind") == "sweep"
              and isinstance(p.get("name"), str)]
    names = {p["name"] for p in sweeps}
    for row in EPISODE_PIPELINE_ROWS:
        if row not in names:
            fail(path, f"episode_pipeline: missing sweep row {row!r}",
                 problems)
    for point in sweeps:
        metrics = point.get("metrics")
        if not isinstance(metrics, dict):
            continue  # already reported by check_point
        for key in EPISODE_PIPELINE_METRICS:
            if key not in metrics:
                fail(path,
                     f"episode_pipeline: sweep {point['name']!r} missing "
                     f"metric {key!r}", problems)
        admitted = metrics.get("admitted")
        committed = metrics.get("committed")
        if all(isinstance(v, numbers.Real) and not isinstance(v, bool)
               for v in (admitted, committed)):
            if admitted != committed:
                fail(path,
                     f"episode_pipeline: sweep {point['name']!r} accounting "
                     f"does not balance (admitted {admitted} != committed "
                     f"{committed})", problems)
        depth = metrics.get("depth")
        high = metrics.get("high_conflict")
        speedup = metrics.get("speedup_vs_depth1")
        if not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                   for v in (depth, high, speedup)):
            continue
        if high != 0 or depth <= 1:
            continue
        floor = 2.0 if depth >= 4 else 1.0
        if speedup < floor:
            fail(path,
                 f"episode_pipeline: sweep {point['name']!r} low-conflict "
                 f"speedup_vs_depth1 is {speedup}, want >= {floor}", problems)


# parallel_scaling (PAR-1): verdict invariance. The thread count may move
# the timings but not what was checked, so every cold (`scaling`) and warm
# (`scaling_warm`) row must apply as many updates and admit as many tier-3
# checks as its sweep's sequential t1 row, which must admit some. Counts,
# not timings, so the check is exact in quick mode too. There is no speedup
# floor: contention on a shared host moves it.
PARALLEL_SCALING_SWEEPS = ("scaling", "scaling_warm")
PARALLEL_SCALING_CONSTRAINTS = (8, 64)
PARALLEL_SCALING_COUNTS = ("applied_updates", "tier3_checks")


def check_parallel_scaling(path, doc, problems):
    env = doc.get("env")
    quick = isinstance(env, dict) and env.get("quick") is True
    threads = (1, 4) if quick else (1, 2, 4, 8)
    rows = {p["name"]: p.get("metrics") for p in doc.get("points", [])
            if isinstance(p, dict) and p.get("kind") == "sweep"
            and isinstance(p.get("name"), str)}
    for sweep in PARALLEL_SCALING_SWEEPS:
        for constraints in PARALLEL_SCALING_CONSTRAINTS:
            base = rows.get(f"{sweep}/c{constraints}/t1")
            if isinstance(base, dict) and base.get("tier3_checks") == 0:
                fail(path, f"parallel_scaling: {sweep}/c{constraints}/t1 "
                     f"admitted no tier-3 check", problems)
            for t in threads:
                name = f"{sweep}/c{constraints}/t{t}"
                if name not in rows:
                    fail(path, f"parallel_scaling: missing sweep row "
                         f"{name!r}", problems)
                    continue
                metrics = rows[name]
                if not isinstance(metrics, dict):
                    continue  # already reported by check_point
                for key in ("speedup_vs_t1",) + PARALLEL_SCALING_COUNTS:
                    if key not in metrics:
                        fail(path, f"parallel_scaling: sweep {name!r} "
                             f"missing metric {key!r}", problems)
                if not isinstance(base, dict):
                    continue
                for key in PARALLEL_SCALING_COUNTS:
                    if key in metrics and metrics[key] != base.get(key):
                        fail(path, f"parallel_scaling: sweep {name!r} "
                             f"{key} is {metrics[key]!r}, but the t1 row "
                             f"has {base.get(key)!r}", problems)


# fig61_intervals: the keyed direct Fig 6.1 test reads only the inserted
# tuple's key group, so every |L| row must read exactly its 50-row group.
# A count, not a timing, so the check is exact in quick mode too.
FIG61_KEYED_SIZES = (100, 1000, 10000, 100000)
FIG61_KEYED_GROUP = 50


def check_fig61_intervals(path, doc, problems):
    rows = {p["name"]: p for p in doc.get("points", [])
            if isinstance(p, dict) and p.get("kind") == "benchmark"
            and isinstance(p.get("name"), str)}
    for size in FIG61_KEYED_SIZES:
        name = f"BM_DirectIntervalSetKeyed/{size}"
        point = rows.get(name)
        if point is None:
            fail(path, f"fig61_intervals: missing benchmark row {name!r}",
                 problems)
            continue
        metrics = point.get("metrics")
        if not isinstance(metrics, dict):
            continue  # already reported by check_point
        read = metrics.get("rows_read")
        if read != FIG61_KEYED_GROUP:
            fail(path, f"fig61_intervals: {name!r} rows_read is {read!r}, "
                 f"want {FIG61_KEYED_GROUP} (the key group, not all of L)",
                 problems)


# relation_writes: a write to a frozen relation keeps its indexes current
# and a re-freeze builds nothing, so BM_WriteThenFreeze must report zero
# index builds per update at every |R|. A count, not a timing, so the check
# is exact in quick mode too.
RELATION_WRITES_SIZES = (100, 1000, 10000, 100000)


def check_relation_writes(path, doc, problems):
    rows = {p["name"]: p for p in doc.get("points", [])
            if isinstance(p, dict) and p.get("kind") == "benchmark"
            and isinstance(p.get("name"), str)}
    for size in RELATION_WRITES_SIZES:
        name = f"BM_WriteThenFreeze/{size}"
        point = rows.get(name)
        if point is None:
            fail(path, f"relation_writes: missing benchmark row {name!r}",
                 problems)
            continue
        metrics = point.get("metrics")
        if not isinstance(metrics, dict):
            continue  # already reported by check_point
        value = metrics.get("index_builds")
        if value != 0:
            fail(path, f"relation_writes: {name!r} index_builds is "
                 f"{value!r} per update, want 0 (writes must keep the "
                 f"frozen indexes current)", problems)


def check_file(path, problems):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(path, f"unreadable or invalid JSON: {e}", problems)
        return
    if not isinstance(doc, dict):
        fail(path, "top level is not an object", problems)
        return
    if doc.get("schema_version") != 1:
        fail(path, f"schema_version is {doc.get('schema_version')!r}, want 1",
             problems)
    if not isinstance(doc.get("name"), str) or not doc["name"]:
        fail(path, "name missing or empty", problems)
    env = doc.get("env")
    if not isinstance(env, dict):
        fail(path, "env missing or not an object", problems)
    elif not isinstance(env.get("quick"), bool):
        fail(path, "env.quick missing or not a bool", problems)
    points = doc.get("points")
    if not isinstance(points, list):
        fail(path, "points missing or not an array", problems)
        return
    if not points:
        fail(path, "points is empty (no benchmark or sweep output captured)",
             problems)
    for i, point in enumerate(points):
        check_point(path, i, point, problems)
    if doc.get("name") == "remote_cache":
        check_remote_cache(path, doc, problems)
    if doc.get("name") == "overload":
        check_overload(path, doc, problems)
    if doc.get("name") == "topology":
        check_topology(path, doc, problems)
    if doc.get("name") == "plan_cache":
        check_plan_cache(path, doc, problems)
    if doc.get("name") == "episode_pipeline":
        check_episode_pipeline(path, doc, problems)
    if doc.get("name") == "parallel_scaling":
        check_parallel_scaling(path, doc, problems)
    if doc.get("name") == "fig61_intervals":
        check_fig61_intervals(path, doc, problems)
    if doc.get("name") == "relation_writes":
        check_relation_writes(path, doc, problems)


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    problems = []
    for path in argv[1:]:
        before = len(problems)
        check_file(path, problems)
        if len(problems) == before:
            with open(path, encoding="utf-8") as f:
                n = len(json.load(f)["points"])
            print(f"{path}: OK ({n} points)")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
