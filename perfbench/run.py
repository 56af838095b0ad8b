#!/usr/bin/env python3
"""Builds the lifecycle benchmark and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds the
library sources and the benchmark into .bench_build/perfbench (Release);
later calls rebuild only what changed. Build output goes to stderr; the
benchmark's last line of stdout is its JSON result. Workloads:
track_dealership, query_arctic, serve_dealership (see perfbench/README.md).
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "lipstick_perfbench")
TEST_BINARY = os.path.join(BUILD_DIR, "lipstick_perfbench_test")
BUILD_JOBS = "4"


def build(target):
    """Configures (once) and builds `target`; returns True on success."""
    steps = []
    configured = any(os.path.exists(os.path.join(BUILD_DIR, f))
                     for f in ("Makefile", "build.ninja"))
    if not configured:
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", target,
                  "-j", BUILD_JOBS])
    for cmd in steps:
        # Build chatter goes to stderr so stdout carries only the result.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main(argv):
    if argv == ["--selftest"]:
        if not build("lipstick_perfbench_test"):
            return 1
        return subprocess.run([TEST_BINARY], cwd=ROOT).returncode
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__, file=sys.stderr)
        return 2
    if not build("lipstick_perfbench"):
        return 1
    return subprocess.run([BINARY] + argv, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
