#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Run from the root of the repository.  Checks that:
  1. every workload, timed and traced, prints every metric BENCHMARK.json
     names with its unit, correct=true and failed=0;
  2. a deliberately wrong known answer makes the run fail;
  3. every count metric of the traced run is identical across two runs
     with the same seed;
  4. the known answers agree with the brute-force DAG oracle and the apps'
     own output checks (verdict_bench --oracle-check).
Exits 0 when all pass.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, seed=1, extra=()):
    out = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--tiny", *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    return out.returncode, json.loads(lines[-1]) if lines else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    # sweep-isolated is not in BENCHMARK.json (too noisy to gate) but its
    # verdicts and layers are still measured, so it is tested too.
    workloads = [w["name"] for w in bench["workloads"]] + ["sweep-isolated"]
    named = {0: bench["end_to_end"], 1: bench["per_layer"]}

    traced = {}
    for workload in workloads:
        for trace in (0, 1):
            code, result = run(workload, trace)
            got = (result or {}).get("metrics", {})
            complete = all(
                m["name"] in got and got[m["name"]]["unit"] == m["unit"]
                for m in named[trace])
            check(code == 0 and result is not None and result["correct"]
                  and result["failed"] == 0 and result["attempted"] >= 1
                  and complete,
                  f"{workload} --trace {trace}: every metric, no failures")
            if trace == 1:
                traced[workload] = got

    # A wrong known answer must fail the run.
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    wrong = os.path.join(ROOT, target, "perfbench", "wrong_answers.txt")
    with open(os.path.join(HERE, "known_answers.txt")) as f:
        answers = f.read()
    right = "detect-access pbfs/sp+/no-steals clean"
    assert right in answers
    with open(wrong, "w") as f:
        f.write(answers.replace(
            right, "detect-access pbfs/sp+/no-steals determinacy view read "
            "oblivious after-write 'phantom' x1"))
    code, result = run("detect-access", 0, extra=("--answers", wrong))
    check(code != 0 and result is not None and not result["correct"]
          and result["failed"] > 0,
          "a wrong known answer fails the run")

    # Counts repeat exactly, except shadow pages: they depend on where the
    # heap places the program's data relative to page boundaries, and are
    # reported as medians (README.md, "Per-layer metrics").
    placed = {"shadow.pages_touched", "shadow.pages_cow"}
    counts = [m["name"] for m in bench["per_layer"]
              if m["unit"] == "count" and m["name"] not in placed]
    for workload in workloads:
        _, again = run(workload, 1)
        differ = [n for n in counts
                  if again is None
                  or again["metrics"][n]["value"] != traced[workload][n]["value"]]
        check(not differ, f"{workload}: counts repeat exactly {differ or ''}")

    code = subprocess.run(RUN + ["--oracle-check"], cwd=ROOT,
                          stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode
    check(code == 0, "known answers agree with the DAG oracle")

    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
