#!/usr/bin/env python3
"""CI perf-regression gate for the Lipstick bench harnesses.

Every bench binary prints one machine-readable line (see
bench/bench_util.h):

    results_json: {"bench":"bench_x","scale":0.02,"metrics":{...}}

Subcommands:

  collect  <out.json> <bench-output-file...>
      Scrapes the results_json lines out of raw bench output and writes
      the unified BENCH_results.json document:
      {"benches": {name: {"scale": s, "metrics": {...}}}}.

  compare  <baseline.json> <results.json> [--threshold PCT] [--update]
      Compares results against the checked-in baseline. Fails (exit 1)
      when a gated metric regressed by more than the threshold (default
      15%). Gated metrics are the "lower is better" ones, recognized by
      unit suffix: _seconds, _ms, _us, _ns, _bytes, _bytes_per_node.
      Unsuffixed metrics (counts, ratios) are informational only.
      Additionally, the `computed_overhead_pct` metric is held to a hard
      absolute ceiling of 2.0 regardless of the baseline (the disarmed
      fault/observability hooks must stay under 2% — see DESIGN.md).
      Armed/opt-in overhead metrics are informational: the ceiling is a
      contract about runs that did not ask for observability.
      --update rewrites the baseline from the results instead of
      comparing (use after an intentional perf change; commit the diff),
      stamping every entry with the recording machine's "hw_threads".

Comparisons are only meaningful between runs at the same
LIPSTICK_BENCH_SCALE; a scale mismatch for a bench is an error.
"""

import argparse
import json
import os
import sys

# "Lower is better" unit suffixes, gated against the baseline.
GATED_SUFFIXES = ("_seconds", "_ms", "_us", "_ns",
                  "_bytes", "_bytes_per_node")
# Absolute floors per suffix: below these, timer noise dominates and a
# relative check would flap. (Space metrics are deterministic: no floor.)
NOISE_FLOORS = {"_seconds": 0.05, "_ms": 50.0, "_us": 50000.0,
                "_ns": 5e10, "_bytes": 0.0, "_bytes_per_node": 0.0}
# Hard absolute ceiling for disarmed-hook overhead metrics (percent).
OVERHEAD_CEILING_PCT = 2.0


def gated_suffix(metric):
    for suffix in GATED_SUFFIXES:
        if metric.endswith(suffix):
            return suffix
    return None


def collect(out_path, input_paths):
    benches = {}
    for path in input_paths:
        with open(path, encoding="utf-8") as f:
            text = f.read()
        found = False
        for line in text.splitlines():
            if not line.startswith("results_json:"):
                continue
            doc = json.loads(line[len("results_json:"):].strip())
            benches[doc["bench"]] = {"scale": doc["scale"],
                                     "metrics": doc["metrics"]}
            found = True
        if not found:
            print(f"warning: no results_json line in {path}",
                  file=sys.stderr)
    document = {"benches": benches}
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(document, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"collected {len(benches)} bench result(s) -> {out_path}")
    return 0


def compare(baseline_path, results_path, threshold_pct, update):
    with open(results_path, encoding="utf-8") as f:
        results = json.load(f)["benches"]

    if update:
        # Timings depend on the machine: stamp each entry with the hardware
        # thread count it was recorded on.
        for result in results.values():
            result["hw_threads"] = os.cpu_count()
        with open(baseline_path, "w", encoding="utf-8") as f:
            json.dump({"benches": results}, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"baseline updated from {results_path} -> {baseline_path}")
        return 0

    with open(baseline_path, encoding="utf-8") as f:
        baseline = json.load(f)["benches"]

    failures = []
    checked = 0
    for name, result in sorted(results.items()):
        base = baseline.get(name)
        if base is None:
            print(f"{name}: NEW (no baseline entry; add with --update)")
            continue
        if base["scale"] != result["scale"]:
            failures.append(
                f"{name}: scale mismatch (baseline {base['scale']}, "
                f"results {result['scale']}) — rerun at the same "
                f"LIPSTICK_BENCH_SCALE")
            continue
        for metric, value in sorted(result["metrics"].items()):
            if metric == "computed_overhead_pct":
                checked += 1
                status = "ok" if value <= OVERHEAD_CEILING_PCT else "FAIL"
                print(f"{name}.{metric}: {value:.4f}% "
                      f"(ceiling {OVERHEAD_CEILING_PCT}%) {status}")
                if value > OVERHEAD_CEILING_PCT:
                    failures.append(
                        f"{name}.{metric}: {value:.4f}% exceeds the "
                        f"{OVERHEAD_CEILING_PCT}% disarmed-hook ceiling")
                continue
            suffix = gated_suffix(metric)
            if suffix is None or metric not in base["metrics"]:
                continue
            base_value = base["metrics"][metric]
            checked += 1
            if base_value <= NOISE_FLOORS[suffix] or base_value == 0:
                print(f"{name}.{metric}: {value:g} (baseline {base_value:g},"
                      f" under noise floor; not gated)")
                continue
            delta_pct = 100.0 * (value - base_value) / base_value
            status = "ok" if delta_pct <= threshold_pct else "FAIL"
            print(f"{name}.{metric}: {value:g} vs {base_value:g} "
                  f"({delta_pct:+.1f}%) {status}")
            if delta_pct > threshold_pct:
                failures.append(
                    f"{name}.{metric}: {delta_pct:+.1f}% regression "
                    f"(threshold {threshold_pct}%)")

    print(f"\nchecked {checked} gated metric(s) across "
          f"{len(results)} bench(es)")
    if failures:
        print(f"\n{len(failures)} perf regression(s):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("no perf regressions")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_collect = sub.add_parser("collect", help="scrape results_json lines")
    p_collect.add_argument("out")
    p_collect.add_argument("inputs", nargs="+")

    p_compare = sub.add_parser("compare", help="gate results vs baseline")
    p_compare.add_argument("baseline")
    p_compare.add_argument("results")
    p_compare.add_argument("--threshold", type=float, default=15.0,
                           help="max allowed regression in percent")
    p_compare.add_argument("--update", action="store_true",
                           help="rewrite the baseline from the results")

    args = parser.parse_args()
    if args.command == "collect":
        return collect(args.out, args.inputs)
    return compare(args.baseline, args.results, args.threshold, args.update)


if __name__ == "__main__":
    sys.exit(main())
