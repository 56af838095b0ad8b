#!/usr/bin/env python3
"""Steadiness command: runs every workload k times and summarizes each metric.

    python3 perfbench/steady.py [--k 10] [--out F]
    python3 perfbench/steady.py --compare FIRST.json SECOND.json

The first form runs `perfbench/run.py` (untraced, BENCHMARK.json's
run_seconds) k times per workload, one process at a time, with seeds 1..k,
and prints each metric's median, quartiles (statistics.quantiles, n=4) and
spread, the distance between the quartiles as a share of the median. A run
that exits non-zero, is not correct or has a failed operation stops it. The
raw results go to --out (default .bench_build/steady/<time>.json).

The second form compares two such files, taken apart in time, as two sets of
the same code: for each workload and metric it prints how much worse either
median is than the other (the larger of the two readings, so it does not
matter which set is taken as the baseline) next to the metric's bound from
BENCHMARK.json. BENCHMARK.json's bounds are set from these outputs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    started = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] > 0:
        raise SystemExit(f"{workload} seed {seed}: correct "
                         f"{result['correct']}, {result['failed']} failed")
    result["wall_s"] = time.time() - started
    return result


def summarize(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, spread


def bounds(spec):
    return {m["name"]: m for m in spec["end_to_end"]}


def print_summary(results, spec):
    metric_specs = bounds(spec)
    for workload, runs in results.items():
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        walls = [r["wall_s"] for r in runs]
        print(f"\n{workload}: {len(runs)} runs, failed share {shares}, "
              f"wall {min(walls):.1f}-{max(walls):.1f} s, "
              f"all correct: {all(r['correct'] for r in runs)}")
        print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median, q1, q3, spread = summarize(values)
            bound = metric_specs.get(name, {}).get("bound")
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  > bound/3"
            print(f"  {name:34} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.3f} {bound if bound is not None else '':>6}"
                  f"{flag}")


def worse_share(a, b, higher_better):
    """How much worse median b is than median a, as a share of a."""
    return (a - b) / a if higher_better else (b - a) / a


def compare(first_path, second_path, spec):
    with open(first_path) as f:
        first = json.load(f)
    with open(second_path) as f:
        second = json.load(f)
    metric_specs = bounds(spec)
    worst = 0.0
    for workload in first:
        if workload not in second:
            continue
        print(f"\n{workload}:")
        print(f"  {'metric':34} {'first':>12} {'second':>12} {'drift':>9} "
              f"{'bound':>6}")
        for name in first[workload][0]["metrics"]:
            a = statistics.median(
                r["metrics"][name]["value"] for r in first[workload])
            b = statistics.median(
                r["metrics"][name]["value"] for r in second[workload])
            m = metric_specs.get(name, {})
            higher_better = m.get("better") == "higher"
            drift = max(worse_share(a, b, higher_better),
                        worse_share(b, a, higher_better))
            worst = max(worst, drift)
            bound = m.get("bound")
            flag = "  EXCEEDS" if bound is not None and drift > bound else ""
            print(f"  {name:34} {a:12.6g} {b:12.6g} {drift:9.3f} "
                  f"{bound if bound is not None else '':>6}{flag}")
        share_a = {r["failed"] / r["attempted"] for r in first[workload]}
        share_b = {r["failed"] / r["attempted"] for r in second[workload]}
        print(f"  failed share: {sorted(share_a)} vs {sorted(share_b)}")
    print(f"\nlargest drift: {worst:.3f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    spec = load_spec()
    if args.compare:
        compare(args.compare[0], args.compare[1], spec)
        return 0

    results = {}
    for workload in (w["name"] for w in spec["workloads"]):
        results[workload] = []
        for seed in range(1, args.k + 1):
            results[workload].append(
                run_once(workload, seed, spec["run_seconds"]))
            print(f"{workload} seed {seed}: done", file=sys.stderr)
    out = args.out or os.path.join(
        ROOT, ".bench_build", "steady",
        time.strftime("%Y%m%d-%H%M%S") + ".json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump(results, f, indent=1)
    print_summary(results, spec)
    print(f"\nraw results: {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
