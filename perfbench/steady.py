#!/usr/bin/env python3
"""Steadiness report: repeated runs of the same build, one seed each.

    python3 perfbench/steady.py [--workloads serve-mix,...] [--runs 10]
                                [--first-seed 1] [--seconds N]

For every workload it runs `perfbench/run.py` once per seed and prints,
for each end-to-end metric, the median, the first and third quartiles
(Python's statistics.quantiles(values, n=4)), the sample count, and the
spread (Q3 - Q1) as a share of the median next to the metric's bound from
BENCHMARK.json. A spread at or above a third of its bound is flagged;
setup_s is reported but not held to its bound, since its bound applies
between medians only. Exits non-zero if any run fails or reports wrong
output.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        return None
    result = json.loads(lines[-1])
    return result if result.get("correct") else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    ok = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run_once(workload, seed, args.seconds)
            if result is None:
                print("%s seed %d: run failed or output wrong" % (workload, seed))
                ok = False
                continue
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print("%s: %d runs of %g s" % (workload, args.runs, args.seconds))
        print("  %-16s %12s %12s %12s %4s %8s %6s" %
              ("metric", "median", "q1", "q3", "n", "spread", "bound"))
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]["bound"]
            flag = ""
            if name != "setup_s" and spread >= bound / 3:
                flag = "  <- spread >= bound/3"
            print("  %-16s %12.6g %12.6g %12.6g %4d %7.2f%% %5.0f%%%s" %
                  (name, med, q1, q3, len(vals), 100 * spread, 100 * bound,
                   flag))
        # In run order, so that drift over the set shows.
        for name, vals in values.items():
            print("  %-16s runs: %s" % (name, " ".join("%.4g" % v for v in vals)))
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
