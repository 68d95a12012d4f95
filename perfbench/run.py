#!/usr/bin/env python3
"""Build and run Rader's verdict benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository.  The benchmark and the rader library
(from ../src) are built into $CARGO_TARGET_DIR/perfbench, by default
.bench_build/perfbench; an up-to-date build costs about a second.  The last
line of stdout is the benchmark's JSON result; build output goes to stderr.
Extra flags (--tiny, --answers FILE, --oracle-check) pass through to
verdict_bench.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ANSWERS = os.path.join(HERE, "known_answers.txt")
# The benchmark itself must finish well inside three minutes.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: the rader sources (src/) are missing next to "
                 "perfbench/; nothing to build")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", build_dir],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", build_dir, "--target",
                        "verdict_bench", "-j", "4"],
                       stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    return os.path.join(build_dir, "verdict_bench")


def main():
    args = sys.argv[1:]
    if "--answers" not in args:
        args += ["--answers", ANSWERS]
    binary = build()
    try:
        result = subprocess.run([binary] + args, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: benchmark exceeded {RUN_TIMEOUT_S}s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
