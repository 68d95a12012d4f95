#!/usr/bin/env python3
"""Run-to-run steadiness of the benchmark's end-to-end metrics.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
                                    [--workloads a,b] [--seconds S]

Runs the timed benchmark (--trace 0) once per seed on each workload, one
run at a time, and prints for every end-to-end metric the median, the first
and third quartiles (statistics.quantiles(values, n=4)), and the spread
(Q3 - Q1) / median next to the metric's bound from BENCHMARK.json.  Run from
the root of the repository.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    print("| workload | metric | median | Q1 | Q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|")
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if out.returncode != 0 or not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: run failed", file=sys.stderr)
                ok = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            print(f"| {workload} | {name} | {med:.5g} | {q1:.5g} | {q3:.5g} "
                  f"| {spread:.3f} | {bounds[name]} |", flush=True)
            if name != "setup_s" and spread > bounds[name]:
                ok = False
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
