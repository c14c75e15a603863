#!/usr/bin/env python3
"""Builds and runs the episode benchmark; see README.md.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
`episode_bench` (the checker's libraries from src/ plus this directory)
under $CARGO_TARGET_DIR, default `.bench_build`; later runs rebuild only
what changed. The benchmark's own output is passed through, and the last
line printed is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`, the metrics being the `end_to_end` (--trace 0) or
`per_layer` (--trace 1) list of BENCHMARK.json. --trace 1 also writes the
Chrome trace and the per-layer table to perfbench/out/.

An end-to-end run (--trace 0) is PROCESSES fresh processes of
`episode_bench`, each with its own set-up and an equal share of --seconds,
run one after another with the same seed. Throughput, CPU per episode,
set-up time and peak RSS are medians over the processes, the latency
quantiles pool every process's episodes, and the per-episode counts and
shares are episode-weighted means (they are equal in every process).

The `*_ref` timings are the same timings at the reference speed: each
process times a fixed reference kernel between its rounds, and its
timings are scaled by REFERENCE_US / (the kernel's median time), as if
the host ran the kernel in exactly REFERENCE_US. That cancels the
host's own speed changes, which on a shared machine move every timing
by tens of percent from one minute to the next. The unscaled timings are
printed in the report.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 160
PROCESSES = 4
MEDIAN_OVER_PROCESSES = ("episodes_per_s", "cpu_us_per_episode", "setup_s",
                         "peak_rss_mb")
POOLED_QUANTILES = {"episode_p50_us": 0.5, "episode_p99_us": 0.99}
REFERENCE_US = 1000.0


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no checker sources at src/; run from a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "episode_bench",
                  "-j", "4"])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "episode_bench")


def metric_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]]


def run_binary(command, deadline):
    """Runs one episode_bench process; returns (report lines, result)."""
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("episode_bench ran past %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(done.stdout[-4000:])
        fail("episode_bench exited with %d" % done.returncode)
    return lines[:-1], json.loads(lines[-1])


def quantile(sorted_values, q):
    """Nearest-rank quantile, as episode_bench computes it."""
    rank = math.ceil(q * len(sorted_values))
    return sorted_values[max(rank, 1) - 1]


def combine(results, samples, scaled_samples):
    """One result from the processes of an end-to-end run; `samples` are
    the episode latencies of every process, `scaled_samples` the same at
    the reference speed (both sorted)."""
    attempted = sum(r["attempted"] for r in results)
    metrics = {}
    for name, m in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        if name in MEDIAN_OVER_PROCESSES:
            value = statistics.median(values)
        elif name in POOLED_QUANTILES:
            value = quantile(samples, POOLED_QUANTILES[name])
        else:
            value = sum(v * r["attempted"]
                        for v, r in zip(values, results)) / attempted
        metrics[name] = {"value": value, "unit": m["unit"]}
    speed = [REFERENCE_US / r["metrics"]["reference_kernel_us"]["value"]
             for r in results]
    scaled = {
        "episodes_per_s_ref": statistics.median(
            r["metrics"]["episodes_per_s"]["value"] / s
            for r, s in zip(results, speed)),
        "cpu_us_per_episode_ref": statistics.median(
            r["metrics"]["cpu_us_per_episode"]["value"] * s
            for r, s in zip(results, speed)),
        "episode_p50_us_ref": quantile(scaled_samples, 0.5),
        "episode_p99_us_ref": quantile(scaled_samples, 0.99),
    }
    for name, value in scaled.items():
        unit = metrics[name[:-len("_ref")]]["unit"]
        metrics[name] = {"value": value, "unit": unit}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": attempted,
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in (0, 60]")

    wanted = metric_names(args.trace)
    binary = build()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--trace", str(args.trace), "--out", out_dir]
    if args.trace:
        report, result = run_binary(
            command + ["--seconds", repr(args.seconds)], deadline)
        for line in report:
            print(line)
    else:
        results = []
        samples = []
        scaled_samples = []
        path = os.path.join(out_dir, args.workload + ".samples")
        for k in range(PROCESSES):
            report, r = run_binary(
                command + ["--seconds", repr(args.seconds / PROCESSES),
                           "--samples", path], deadline)
            speed = REFERENCE_US / r["metrics"]["reference_kernel_us"]["value"]
            with open(path) as f:
                mine = [float(line) for line in f]
            os.remove(path)
            samples.extend(mine)
            scaled_samples.extend(us * speed for us in mine)
            results.append(r)
            for line in report:
                print("[process %d] %s" % (k, line))
        samples.sort()
        scaled_samples.sort()
        result = combine(results, samples, scaled_samples)
        above = len(samples) - math.ceil(0.99 * len(samples))
        print("combined %d processes: %d episodes, %d above the pooled p99" %
              (PROCESSES, len(samples), above))
        print("all metrics: " + json.dumps(result["metrics"]))

    metrics = {}
    for name, unit in wanted:
        m = result["metrics"].get(name)
        if m is None or m["unit"] != unit or not math.isfinite(m["value"]):
            fail("metric %s missing or malformed: %r" % (name, m))
        metrics[name] = {"value": m["value"], "unit": unit}
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
