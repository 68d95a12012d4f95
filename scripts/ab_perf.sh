#!/usr/bin/env bash
# A/B benchmark of two commits under two code layouts.
#
#   scripts/ab_perf.sh BASE HEAD WORKLOAD...
#
# Extracts each commit (git archive) into a temporary directory, removed on
# exit, and builds its perfbench with only CARGO_TARGET_DIR and CXXFLAGS set,
# under two layouts: the default flags and -falign-functions=64.  Function
# placement alone can move a detect-* verdict_s by about 5%, so a claim
# counts only if it holds under both layouts.
#
# For each layout and workload it runs PAIRS alternating pairs of
#   perfbench/run.py --workload W --seed S --seconds T --trace 0
# (T is BENCHMARK.json's run_seconds; pair i uses seed i on both sides; odd
# pairs run HEAD first), then prints, per end-to-end metric of
# BENCHMARK.json, the base median, the base IQR, the head median and the
# pairs HEAD won.  A pair in which either side failed, or reported a wrong
# verdict, is left out of the table and counted on a line of its own.
#
# Environment: PAIRS (default 5), TMPDIR (where the checkouts and builds
# go).
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 3 ]]; then
  sed -n '2,4p' "$0" >&2
  exit 2
fi
BASE=$1
HEAD=$2
shift 2
PAIRS=${PAIRS:-5}
run_seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

WORK=$(mktemp -d "${TMPDIR:-/tmp}/ab_perf.XXXXXX")
trap 'rm -rf "$WORK"' EXIT
for side in base head; do
  rev=$BASE
  [[ $side == head ]] && rev=$HEAD
  mkdir -p "$WORK/$side"
  git archive "$rev" | tar -x -C "$WORK/$side"
done
RESULTS=$WORK/results.tsv
: >"$RESULTS"

# run SIDE LAYOUT WORKLOAD SEED SECONDS: one run.py invocation; prints its
# JSON result line (or nothing when the run failed).
run() {
  local flags=""
  [[ $2 == aligned ]] && flags="-falign-functions=64"
  (cd "$WORK/$1" &&
   CARGO_TARGET_DIR="$WORK/build-$1-$2" CXXFLAGS="$flags" \
     python3 perfbench/run.py --workload "$3" --seed "$4" --seconds "$5" \
       --trace 0 2>>"$WORK/build.log" | tail -n 1) || true
}

for layout in default aligned; do
  for w in "$@"; do
    # Warm-up: builds both sides for this layout outside the timed pairs.
    run base "$layout" "$w" 1 1 >/dev/null
    run head "$layout" "$w" 1 1 >/dev/null
    for ((i = 1; i <= PAIRS; i++)); do
      order="base head"
      ((i % 2 == 1)) && order="head base"
      for side in $order; do
        echo "[$layout] $w pair $i/$PAIRS: $side" >&2
        printf '%s\t%s\t%s\t%s\t%s\n' "$layout" "$w" "$i" "$side" \
          "$(run "$side" "$layout" "$w" "$i" "$run_seconds")" >>"$RESULTS"
      done
    done
  done
done

python3 - "$RESULTS" BENCHMARK.json "$BASE" "$HEAD" <<'PY'
import json, statistics, sys

results, bench, base_rev, head_rev = sys.argv[1:]
metrics = json.load(open(bench))["end_to_end"]
runs = {}  # (layout, workload) -> {pair: {side: result}}
for line in open(results):
    layout, workload, pair, side, text = line.rstrip("\n").split("\t", 4)
    try:
        result = json.loads(text)
    except ValueError:
        result = None
    runs.setdefault((layout, workload), {}).setdefault(int(pair), {})[side] = result


def iqr(xs):
    if len(xs) < 2:
        return 0.0
    q = statistics.quantiles(xs, n=4)
    return q[2] - q[0]


def good(result):
    return bool(result) and result.get("correct") and not result.get("failed")


print(f"base {base_rev} vs head {head_rev}")
print("| layout | workload | metric | base median | base IQR | head median | head won |")
print("|---|---|---|---|---|---|---|")
for (layout, workload), pairs in runs.items():
    kept = [p for p in pairs.values() if good(p.get("base")) and good(p.get("head"))]
    for m in metrics:
        name = m["name"]
        if not kept:
            continue
        base = [p["base"]["metrics"][name]["value"] for p in kept]
        head = [p["head"]["metrics"][name]["value"] for p in kept]
        won = sum((hv < bv) if m["better"] == "lower" else (hv > bv)
                  for bv, hv in zip(base, head))
        print(f"| {layout} | {workload} | {name} | {statistics.median(base):.6g} "
              f"| {iqr(base):.3g} | {statistics.median(head):.6g} | {won}/{len(kept)} |")
    if len(kept) < len(pairs):
        print(f"| {layout} | {workload} | pairs left out (a side failed or was "
              f"incorrect): {len(pairs) - len(kept)} | | | | |")
PY
