#!/usr/bin/env bash
# One-command gate.
#
#   scripts/check.sh          fast gate: build, fast-label tests, benchmark
#                             self-test, 60 s fuzz
#   scripts/check.sh --full   everything: all test labels (fast + slow +
#                             stress), bench smoke
#   scripts/check.sh --trace  build + the trace smoke only (exports a
#                             Chrome trace and validates it with python3)
#   scripts/check.sh --fuzz   build + the fuzz smoke only (60 s differential
#                             fuzz with shrinking artifacts on divergence)
#
# Test labels (set in tests/CMakeLists.txt): `ctest -L fast|slow|stress`.
# The examples run as ctest tests `example.<name>` (label fast).
set -euo pipefail
cd "$(dirname "$0")/.."

FULL=0
TRACE_ONLY=0
FUZZ_ONLY=0
case "${1:-}" in
  --full) FULL=1 ;;
  --trace) TRACE_ONLY=1 ;;
  --fuzz) FUZZ_ONLY=1 ;;
esac

cmake -B build -S .
cmake --build build -j

# The --trace smoke: export a Chrome trace from the collision litmus and
# validate it with a real JSON parser — the file must load, carry at least
# two simulated-worker tracks, keep timestamps non-decreasing within every
# track, and contain the steal->reduce flow pair ("s"/"f" events).
trace_smoke() {
  echo "== trace smoke =="
  local TJ=build/trace_collision.json
  ./build/tools/rader --program=collision --check=sp+ \
    --trace="$TJ" >/dev/null
  python3 - "$TJ" <<'PY'
import json, sys
t = json.load(open(sys.argv[1]))
ev = t["traceEvents"]
tracks = {}
for e in ev:
    if e["ph"] == "M":
        continue
    tracks.setdefault((e["pid"], e["tid"]), []).append(e["ts"])
assert len(tracks) >= 2, f"expected >= 2 worker tracks, got {len(tracks)}"
for key, ts in tracks.items():
    assert ts == sorted(ts), f"timestamps regress on track {key}"
phases = {e["ph"] for e in ev}
assert "s" in phases and "f" in phases, "missing steal->reduce flow events"
print("trace smoke ok: %d events, %d worker tracks, flows present"
      % (len(ev), len(tracks)))
PY
}

# The fuzz smoke: 60 s of fresh-seed differential fuzzing.  Divergences
# fail the gate and leave shrunk `.rprog` + litmus artifacts under
# build/fuzz-artifacts for triage (docs/FUZZING.md).
fuzz_smoke() {
  echo "== fuzz smoke =="
  ./build/tools/fuzz_detectors --seconds=60 \
    --out-dir=build/fuzz-artifacts --shrink
}

if [[ "$TRACE_ONLY" == 1 ]]; then
  trace_smoke
  echo "ALL CHECKS PASSED"
  exit 0
fi

if [[ "$FUZZ_ONLY" == 1 ]]; then
  fuzz_smoke
  echo "ALL CHECKS PASSED"
  exit 0
fi

if [[ "$FULL" == 1 ]]; then
  ctest --test-dir build --output-on-failure
else
  ctest --test-dir build -L fast --output-on-failure
fi

echo "== benchmark self-test =="
# The verdict benchmark's known answers (perfbench/known_answers.txt), its
# metric set and its count repeatability, at tiny sizes: a detector change
# that shifts a known answer fails here, before it reaches the benchmark.
python3 perfbench/selftest.py

echo "== json report smoke =="
# One known-racy litmus run through --format=json: validate the rader.report
# schema with a real JSON parser, then round-trip a replay handle and check
# the replay reproduces the same deduplicated race set (labels + kinds; raw
# heap addresses differ between process invocations).
RJ1=build/report_sp.json
RJ2=build/report_replay.json
./build/tools/rader --program=fig1 --check=sp+ --spec=triple:0,1,2 \
  --format=json >"$RJ1" 2>/dev/null || true
HANDLE=$(python3 - "$RJ1" <<'PY'
import json, sys
r = json.load(open(sys.argv[1]))
for key in ("schema", "schema_version", "program", "check", "spec",
            "races", "replay_handles", "metrics"):
    assert key in r, f"missing key: {key}"
assert r["schema"] == "rader.report" and r["schema_version"] == 5
races = r["races"]
for key in ("view_read_occurrences", "determinacy_occurrences",
            "view_read_races", "determinacy_races"):
    assert key in races, f"missing races key: {key}"
assert races["determinacy_races"], "expected fig1 to race"
assert r["replay_handles"], "expected a replay handle"
m = r["metrics"]
for key in ("counters", "phase_seconds", "gauges", "histograms"):
    assert key in m, f"missing metrics key: {key}"
# Metric names are namespaced; gauges carry value+max; histograms quantiles.
assert "sweep.spec_runs" in m["counters"], sorted(m["counters"])
for g in m["gauges"].values():
    assert set(g) == {"value", "max"}, g
for h in m["histograms"].values():
    for key in ("count", "sum", "p50", "p90", "p99", "buckets"):
        assert key in h, f"missing histogram key: {key}"
print(r["replay_handles"][0])
PY
)
./build/tools/rader --program=fig1 "--replay=$HANDLE" \
  --format=json >"$RJ2" 2>/dev/null || true
python3 - "$RJ1" "$RJ2" <<'PY'
import json, sys
a = json.load(open(sys.argv[1]))
b = json.load(open(sys.argv[2]))
assert b["check"] == "replay", b["check"]
def identities(r):
    return sorted((d["kind"], d["label"], d["prior_was_write"],
                   d["view_aware"]) for d in r["races"]["determinacy_races"])
assert identities(a) == identities(b), \
    "replay did not reproduce the deduplicated race set"
assert b["metrics"]["counters"]["sweep.spec_runs"] >= 1
print("json + replay round-trip ok: %d deduplicated race(s) reproduced "
      "under %s" % (len(b["races"]["determinacy_races"]), b["spec"]))
PY

echo "== observability smoke =="
# The metric catalog must be non-empty and well-formed (name type help).
./build/tools/rader --list-metrics | awk '
  NF < 3 { print "bad --list-metrics row: " $0; exit 1 }
  $2 !~ /^(counter|gauge|histogram|phase)$/ {
    print "bad metric type: " $0; exit 1 }
  END { if (NR < 10) { print "catalog suspiciously small"; exit 1 }
        print "list-metrics ok: " NR " metrics" }'

# One exhaustive sweep emitting every exposition format at once: Prometheus
# snapshot, JSONL time series, and the collapsed-stack profile.  Each is
# validated with a real parser (python3), not a grep.
OBS_PROM=build/obs_metrics.prom
OBS_JSONL=build/obs_metrics.jsonl
OBS_PROF=build/obs_profile.txt
./build/tools/rader --program=fig1 --check=exhaustive --jobs=2 \
  --metrics-prom="$OBS_PROM" --metrics-out="$OBS_JSONL" \
  --metrics-interval-ms=20 --profile="$OBS_PROF" >/dev/null 2>&1 || true
python3 - "$OBS_PROM" "$OBS_JSONL" "$OBS_PROF" <<'PY'
import json, sys

# Prometheus text format: HELP/TYPE pairs, cumulative le-buckets per
# histogram ending in +Inf == _count, phases as labeled seconds.
families = {}
samples = {}
for line in open(sys.argv[1]):
    line = line.rstrip("\n")
    if not line:
        continue
    if line.startswith("# HELP ") or line.startswith("# TYPE "):
        _, kind, name, rest = line.split(" ", 3)
        families.setdefault(name, {})[kind] = rest
        continue
    name_and_labels, value = line.rsplit(" ", 1)
    float(value)  # must parse
    samples.setdefault(name_and_labels, value)
assert all("TYPE" in v and "HELP" in v for v in families.values())
assert any(k.startswith("rader_sweep_spec_runs_total") for k in samples)
assert "rader_phase_seconds" in families
bucket_names = [k for k in samples if '_bucket{le="' in k]
assert bucket_names, "no histogram buckets emitted"
for hist in {b.split("_bucket{")[0] for b in bucket_names}:
    series = [b for b in bucket_names if b.startswith(hist + "_bucket{")]
    counts = [int(samples[b]) for b in series]
    assert counts == sorted(counts), f"{hist} buckets not cumulative"
    inf = [b for b in series if 'le="+Inf"' in b]
    assert inf, f"{hist} missing +Inf bucket"
    assert int(samples[inf[0]]) == int(samples[hist + "_count"])
print("prometheus ok: %d families, %d histogram bucket series"
      % (len(families), len(bucket_names)))

# JSONL time series: every line parses, done is monotone nondecreasing,
# the final (quiesced) sample reports a complete metrics block.
lines = [json.loads(l) for l in open(sys.argv[2]) if l.strip()]
assert lines, "empty JSONL time series"
dones = [l["done"] for l in lines]
assert dones == sorted(dones), "done counts regress across samples"
last = lines[-1]
assert last["done"] == last["total"] > 0, "final sample not quiesced"
for key in ("counters", "phase_seconds", "gauges", "histograms"):
    assert key in last["metrics"], f"missing metrics key: {key}"
assert last["metrics"]["counters"]["sweep.spec_runs"] == last["total"]
print("jsonl ok: %d sample(s), final done=%d" % (len(lines), last["done"]))

# Collapsed-stack profile: every line is "path<space>integer", every
# multi-segment path's prefix also appears (flamegraph tools need complete
# stack prefixes), and the sweep/spec hierarchy is present.
paths = []
for line in open(sys.argv[3]):
    path, _, value = line.rstrip("\n").rpartition(" ")
    assert path and value.isdigit(), f"bad collapsed line: {line!r}"
    paths.append(path)
seen = set(paths)
assert len(seen) == len(paths), "duplicate collapsed-stack paths"
for p in paths:
    if ";" in p:
        prefix = p.rsplit(";", 1)[0]
        assert prefix in seen, f"missing stack prefix: {prefix}"
assert "sweep" in seen and "sweep;spec" in seen, sorted(seen)
print("collapsed profile ok: %d stack path(s)" % len(paths))
PY

echo "== isolation smoke =="
# Crash-isolated sweep end to end: inject a SIGSEGV into one spec of the
# Figure-1 exhaustive family via the fault-point registry, run under
# --isolate=procs, and assert with a real JSON parser that the sweep
# completed, quarantined exactly that spec into the schema-v5 failures[]
# block, and counted the event in the isolation metrics.
ISO_J=build/report_isolated.json
RADER_FAULTS="sweep.spec:crash:2" ./build/tools/rader --program=fig1 \
  --check=exhaustive --isolate=procs --jobs=2 --spec-timeout-ms=5000 \
  --max-retries=1 --format=json >"$ISO_J" 2>/dev/null || true
python3 - "$ISO_J" <<'PY'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["schema_version"] == 5
sweep = r["sweep"]
fails = sweep["failures"]
assert len(fails) == 1, fails
f = fails[0]
assert f["index"] == 2 and f["cause"] == "signal", f
assert f["signal"] != 0 and f["retries"] >= 1, f
c = r["metrics"]["counters"]
assert c["sweep.quarantined"] == 1, c
assert c["sweep.child_crashes"] >= 2, c  # first hit + the retry
assert c["sweep.retries"] == 1, c
# The injected crash must not have cost any OTHER spec: every surviving
# family member ran (or was dedup-reused), so nothing counts as skipped.
assert sweep["specs_skipped"] == 0 and sweep["spec_runs"] >= 1, sweep
assert r["races"]["determinacy_races"], "fig1 must still race"
print("isolation smoke ok: spec[2] quarantined (%s, signal %d), "
      "%d survivor(s) merged"
      % (f["cause"], f["signal"], sweep["spec_runs"]))
PY

trace_smoke
fuzz_smoke

if [[ "$FULL" == 1 ]]; then
  echo "== bench smoke =="
  ./build/bench/thm6_update_coverage
  ./build/bench/thm7_reduce_coverage
  # The sweep bench is also a perf regression gate: the prefix strategy
  # must beat rerun by >= 3x on the tracked front-loaded families
  # (BENCH_sweep.json holds a reference run's numbers), and the enabled
  # JSONL metrics sampling must stay within 1.05x geomean.
  ./build/bench/sweep_scaling --check-ratio=3 --check-metrics-overhead=1.05 \
    --json=build/BENCH_sweep.json
  ./build/bench/fig7_overhead --scale=0.02 --reps=1
  # Production-footprint shadow gates: the packed shadow must win the
  # checkpointed sweep by >= 3x over the bench-local legacy baseline (the
  # paired per-page maps it replaced, kept in the bench), and sampling
  # at the default P=0.01 must stay within 1.10x geomean of uninstrumented
  # on the compute-dominated app benches.
  ./build/bench/large_footprint --check-ratio=3 \
    --check-sampling-overhead=1.10 --reps=5 \
    --json=build/BENCH_large_footprint.json
  # Crash-isolation tax: a clean --isolate=procs sweep must stay within
  # 1.25x geomean of the in-process sweep (docs/ROBUSTNESS.md).
  ./build/bench/isolation_overhead --check-ratio=1.25 \
    --json=build/BENCH_isolation.json
fi

echo "ALL CHECKS PASSED"
