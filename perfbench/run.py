#!/usr/bin/env python3
"""Builds the benchmark driver from this checkout's sources and runs it.

    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The driver and the pgmp library are
compiled with CMake into .bench_build/perfbench (an incremental no-op after
the first run); build output goes to stderr so that the last line of
stdout is the JSON result. Spans from --trace 1 runs are written under
.bench_build/perfbench-out. Exits non-zero, without a result, when the
checkout lacks the library sources or the build fails.

An untraced run is split into PROCS driver processes, run one after
another, each for an equal share of --seconds. On a shared VM host some
processes run all their work, set-up included, about a third faster than
others started a few seconds apart, and stay so for their whole life; so
each end-to-end metric is the median of the per-process values, which an
odd fast or slow process does not move. Operation counts are summed, and
the run is correct only if every process was. A traced run is one
process, since its per-layer figures are sums over the whole run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD_DIR, "pgmp_perfbench")
WORKLOADS = ("serve-mix", "serve-cache", "build-3pass")
PROCS = 5


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("src/CMakeLists.txt", "src/core/Engine.h", "scheme"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no pgmp sources in this checkout (missing %s)" % needed)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "pgmp_perfbench",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))


def run_driver(args, seconds):
    """Runs one driver process; returns its JSON result, or None."""
    proc = subprocess.run([BINARY, "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", repr(seconds),
                           "--trace", str(args.trace),
                           "--out-dir", OUT_DIR],
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def merge(results):
    """Median of each metric over the processes; counts summed."""
    merged = {"correct": all(r["correct"] for r in results),
              "attempted": sum(r["attempted"] for r in results),
              "failed": sum(r["failed"] for r in results),
              "metrics": {}}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        merged["metrics"][name] = {"value": statistics.median(values),
                                   "unit": first["unit"]}
        if len(results) > 1:
            print("%-16s per process: %s" %
                  (name, " ".join("%.6g" % v for v in values)))
    return merged


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    build()
    procs = 1 if args.trace else PROCS
    results = []
    for _ in range(procs):
        result = run_driver(args, args.seconds / procs)
        if result is None:
            fail("the driver printed no result")
        results.append(result)
    merged = merge(results)
    print(json.dumps(merged))
    sys.exit(0 if merged["correct"] else 1)


if __name__ == "__main__":
    main()
