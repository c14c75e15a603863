#!/usr/bin/env python3
"""Runs every workload of BENCHMARK.json and summarizes the runs.

    python3 perfbench/collect.py --runs 10 --first-seed 1 \\
        --out perfbench/baseline/<commit>.json

For each workload: `--runs` end-to-end runs (--trace 0), seeds
first-seed, first-seed+1, ..., then one traced run (--trace 1) with the
first seed. The summary JSON keeps every run's metrics (the unscaled
timings too) plus, per metric, the median, the quartiles
(statistics.quantiles, n=4) and the spread (interquartile distance over
the median) beside the metric's bound, if BENCHMARK.json gives one. The
traced run's per-layer table is copied next to the summary as
<out stem>.<workload>.layers.md. Run from the repository root.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    """The run's result; for --trace 0 its metrics are every metric the run
    printed (the unscaled timings too), not only the gated ones."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit("run failed: %s seed %d trace %d" % (workload, seed, trace))
    lines = done.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("all metrics: "):
            result["metrics"] = json.loads(line[len("all metrics: "):])
    return result


def summarize(values, bound):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    if args.runs < 2:
        sys.exit("--runs must be at least 2")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    summary = {"run_seconds": spec["run_seconds"], "seeds": seeds,
               "workloads": {}}
    stem = os.path.splitext(args.out)[0]
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    for workload in workloads:
        runs = [run(workload, s, spec["run_seconds"], 0) for s in seeds]
        if not all(r["correct"] and r["failed"] == 0 for r in runs):
            sys.exit("%s: a run was not correct" % workload)
        end_to_end = {
            name: summarize([r["metrics"][name]["value"] for r in runs],
                            bounds.get(name))
            for name in runs[0]["metrics"]}
        traced = run(workload, seeds[0], spec["run_seconds"], 1)
        shutil.copyfile(os.path.join(HERE, "out", workload + ".layers.md"),
                        "%s.%s.layers.md" % (stem, workload))
        summary["workloads"][workload] = {
            "attempted": [r["attempted"] for r in runs],
            "end_to_end": end_to_end,
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
        for name, s in end_to_end.items():
            if s["bound"] is None:
                continue
            verdict = ("ok" if s["spread"] < s["bound"] / 3 else
                       "within bound" if s["spread"] <= s["bound"] else
                       "OVER BOUND")
            print("%-18s %-26s median %14.4f spread %.4f (bound %.2f) %s" %
                  (workload, name, s["median"], s["spread"], s["bound"],
                   verdict), flush=True)
    with open(args.out, "w") as f:
        json.dump(summary, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
