// Parallel steal-specification sweep engine.
//
// The Section-7 coverage recipe runs SP+ under O(KD + K³) steal
// specifications.  Each run is an independent serial-engine execution of the
// same program under a different fixed schedule, so the sweep is
// embarrassingly parallel: this engine shards the family across a worker
// pool, giving each worker its own SerialEngine + SP+ detector instance and
// a thread-local RaceLog per specification — either re-running every member
// from scratch (SweepStrategy::kRerun) or fast-forwarding each member from a
// checkpoint of its longest shared decision prefix with the previous one
// (SweepStrategy::kPrefix; see the enum) — then merges the per-spec logs —
// in family order, so the result is bit-for-bit what the serial sweep
// produces — through RaceLog's deduplication layer (core/race_report.hpp),
// which collapses the same race elicited under many specs into one report
// carrying the set of eliciting specifications.
//
// One scheduler (core/sweep_internal.hpp) owns every sweep semantic but
// spec execution — budget, stop-first admission, accounting, the merge, the
// monitor — and drives either of two executors: this thread pool, or
// sandboxed fork children (SweepIsolation::kProcs).
//
// Thread-safety model: the detector stack (SerialEngine, SpPlusDetector,
// its AccessShadow over a PackedShadow, the DSU) has no global state, and
// the engine installation is thread-local (Engine::Scope), so concurrent
// serial-engine runs never interact.  The program under test, however, usually mutates captured state
// when it runs, so workers must not share one instance: the sweep takes a
// *program factory* and each worker materializes its own instance (programs
// must be re-runnable, as for the serial driver — not thread-safe).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <vector>

#include "core/race_report.hpp"
#include "spec/steal_spec.hpp"
#include "support/metrics.hpp"
#include "tool/sampling.hpp"

namespace rader {

/// How the sweep turns family members into executions.
enum class SweepStrategy {
  /// Baseline: every member is a complete fresh SerialEngine + detector run.
  kRerun,

  /// Prefix sharing: the family is treated as a trie keyed on the per-point
  /// steal decisions.  Each worker records the decision trail of its latest
  /// run and takes checkpoints (engine snapshot + SpPlusDetector::fork
  /// + race-log copy) along it exactly at the points where a later family
  /// member first decides differently (specs are pure functions of the
  /// point context, so the run evaluates them as it goes); for the next
  /// member it computes — offline, without executing anything — the first
  /// trail index where the new specification decides differently, then
  /// fast-forwards from the deepest checkpoint at or before that index
  /// (SerialEngine::resume_from), paying detector cost only for the
  /// divergent suffix.  After the first resume that fails verification
  /// (a program that is not address-stable) the worker stops
  /// checkpointing and runs every later member fresh.  A member whose
  /// decisions fully match the previous run reuses its log outright.
  /// Lexicographic families (spec::full_coverage_family and friends) are
  /// emitted in trie DFS order, so ascending index order IS the trie
  /// schedule; workers claim ascending chunks to keep neighbouring members
  /// on one worker.  The merged result is byte-identical to kRerun at every
  /// thread count (tests/core/sweep_equivalence_test); only
  /// SweepResult::metrics — which measure work actually performed — differ.
  kPrefix,
};

/// How sweep executions are sandboxed against crashing / hanging / runaway
/// specs (docs/ROBUSTNESS.md).
enum class SweepIsolation {
  /// Everything runs in-process (fastest; a misbehaving spec takes the
  /// whole process down).
  kNone,

  /// Shard the family across sandboxed worker *processes*
  /// (support/subprocess.hpp: fork without exec, so the program factory
  /// runs directly in the child).  A single-threaded supervisor drains
  /// per-spec results over pipes, enforces per-spec deadlines and memory
  /// caps, retries failed shards with backoff, bisects unattributable
  /// failures, and quarantines the offending spec after retries — the
  /// sweep always completes, surviving specs merge byte-identical to the
  /// in-process sweep, and quarantined specs land in
  /// SweepResult::failures.
  kProcs,
};

/// One quarantined family member of an isolated sweep: the spec the
/// supervisor gave up on after retries, with the failure classification.
/// Serialized as report schema v5's sweep.failures[] (core/report_json.hpp).
struct SweepFailure {
  std::size_t index = 0;   // family index of the quarantined spec
  std::string spec;        // its describe() handle
  std::string cause;       // "signal" | "timeout" | "oom" | "error"
  int signal = 0;          // terminating signal when cause == "signal"
  unsigned retries = 0;    // shard relaunches spent before quarantining
  std::string postmortem;  // child post-mortem file ("" = none captured)
};

/// Options controlling a specification-family sweep.
struct SweepOptions {
  /// Worker threads.  0 = std::thread::hardware_concurrency(); 1 = run the
  /// sweep on the calling thread (no pool).
  unsigned threads = 1;

  /// Execution strategy (`rader --sweep-strategy=rerun|prefix`).
  SweepStrategy strategy = SweepStrategy::kRerun;

  /// Maximum number of SP+ executions (0 = the whole family).  Members past
  /// the budget are skipped, counted in SweepResult::specs_skipped — the
  /// coverage guarantee then holds only for the members that ran.
  std::uint64_t budget = 0;

  /// Stop the sweep at the first racy family member, where "first" means
  /// LOWEST FAMILY INDEX — not first in wall-clock order.  The result is
  /// the deterministic prefix [0, r] of the (budgeted) family, r being the
  /// lowest index whose run reports a race: every member below r still
  /// runs and merges, members above r are skipped, and in-flight runs on
  /// higher indices are discarded.  Race identity, spec_runs, and
  /// specs_skipped are therefore byte-identical at every thread count and
  /// equal to the serial sweep's (tests/core/sweep_dedup_test,
  /// tests/property/sweep_equivalence_test).
  bool stop_after_first_race = false;

  /// Live telemetry (`rader --progress`): the sweep's monitor samples the
  /// per-worker completion counters every `progress_interval_ms` and prints
  /// one heartbeat line — total and per-worker specs done, specs/s, ETA,
  /// racy specs so far — to `progress_out`, plus a final summary line when
  /// the sweep completes.  The live rate/ETA use a rolling window over the
  /// last few heartbeats (support/rolling_rate.hpp) so front-loaded prefix
  /// sweeps report the current regime, not the since-start average (the
  /// final summary line keeps the whole-run average).  The counters are
  /// the same ones aggregated into SweepResult::metrics; sampling them is
  /// wait-free and never perturbs the sweep result.
  bool progress = false;
  unsigned progress_interval_ms = 500;
  std::ostream* progress_out = nullptr;  // nullptr = std::cerr

  /// JSONL metrics time series (`rader --metrics-out=FILE
  /// --metrics-interval-ms=N`): the sweep's monitor appends one
  /// core/metrics_export.hpp sample line per interval — read wait-free
  /// from the workers' live SharedSnapshot slots — plus one final quiesced
  /// sample after the workers join.  nullptr = off.  The enabled sampling
  /// overhead is budgeted by bench/sweep_scaling --check-metrics-overhead
  /// at <= 1.05x geomean.
  std::ostream* metrics_out = nullptr;
  unsigned metrics_interval_ms = 500;

  /// Hang watchdog (`rader --watchdog-ms=N`): when > 0 and no spec
  /// completes for this many milliseconds while the sweep is unfinished,
  /// the sweep's monitor writes a post-mortem report (support/crash.hpp:
  /// live metrics, in-flight spec handles, trace-ring tails) to
  /// `watchdog_fd` and bumps sweep.postmortem_dumps, then re-arms on the
  /// next completion.  Diagnosis only — the sweep itself is never
  /// interrupted.
  unsigned watchdog_ms = 0;
  int watchdog_fd = 2;  // stderr

  /// Access sampling (`rader --sample-rate=P [--sample-seed=S]`): when
  /// enabled, each per-spec SP+ detector is wrapped in a SamplingTool
  /// whose seed is derived from the SPEC's describe() string
  /// (sampling_seed_for_spec) — worker- and jobs-independent, so sampled
  /// sweep results stay deterministic at every thread count.  Sampling
  /// forces SweepStrategy::kRerun: prefix checkpoints share detector
  /// state ACROSS specs, which per-spec sample sets would corrupt.
  SamplingConfig sampling;

  /// Crash isolation (`rader --isolate=procs`): see SweepIsolation.  With
  /// kProcs, `threads` is the number of concurrent sandbox processes, the
  /// single-threaded supervisor ticks the same monitor
  /// (--progress/--metrics-out/--watchdog-ms) from its poll loop, and the
  /// fields below apply.
  SweepIsolation isolation = SweepIsolation::kNone;

  /// kProcs: wall-clock deadline per spec inside a child
  /// (`--spec-timeout-ms`); on expiry the child is SIGKILLed and the spec
  /// goes through retry/quarantine with cause "timeout".  0 = no deadline
  /// (only --watchdog-kill can then recover a hang).
  unsigned spec_timeout_ms = 0;

  /// kProcs: failed-shard relaunches (same range, exponential backoff)
  /// before the culprit spec is quarantined (`--max-retries`).
  unsigned max_retries = 1;

  /// kProcs: RLIMIT_AS per child in MiB (`--child-mem-mb`); a runaway
  /// allocation then dies as cause "oom" instead of OOM-killing the host.
  /// 0 = inherit.  Note the cap covers the child's whole address space —
  /// which starts as a fork of the parent's — so it must comfortably
  /// exceed the parent's footprint.
  unsigned child_mem_mb = 0;

  /// kProcs + watchdog_ms > 0: escalate a watchdog stall from
  /// diagnosis-only to recovery (`--watchdog-kill`) — a child with no pipe
  /// activity for watchdog_ms is killed and its shard re-enters the same
  /// retry/quarantine path (counted in sweep.quarantined), so even a
  /// sleeping hang with no --spec-timeout-ms cannot wedge the sweep.
  bool watchdog_kill = false;

  /// kProcs: directory for per-child crash post-mortems
  /// (`--postmortem-dir`).  Each child installs the fatal-signal handler
  /// (support/crash.hpp) targeting "<dir>/child-<first-index>-<attempt>.
  /// postmortem"; when a quarantined spec's child left one, its path is
  /// recorded in SweepFailure::postmortem.  "" = children dump to stderr.
  std::string postmortem_dir;
};

/// Factory producing a fresh instance of the program under test.  Called at
/// most once per sweep worker; the returned callable is only ever run by
/// that worker, one execution at a time.
using ProgramFactory = std::function<std::function<void()>()>;

/// Wrap a program that is safe to share across workers (stateless, or run
/// concurrently without interference) as a factory.
ProgramFactory shared_program(std::function<void()> program);

struct SweepResult {
  RaceLog log;                      // deduplicated union over executed specs
  std::uint64_t spec_runs = 0;      // SP+ executions merged into the result
  std::uint64_t specs_skipped = 0;  // members skipped (budget / early stop)

  /// Isolated sweeps only: quarantined family members inside the merged
  /// prefix, ascending by index (report schema v5 sweep.failures[]).  The
  /// merged log covers every prefix member EXCEPT these; empty for
  /// in-process sweeps, which die with their first misbehaving spec
  /// instead.  spec_runs + failures.size() + specs_skipped == family size.
  std::vector<SweepFailure> failures;

  /// Aggregate run metrics: worker counters/timers summed, plus the merge
  /// phase.  Unlike the fields above, metrics measure the work actually
  /// performed (including stop-first runs discarded from the result), so
  /// they legitimately vary with thread count.  Also forwarded to the
  /// calling thread's metrics::Registry when one is installed.
  metrics::Snapshot metrics;
};

/// Run SP+ under every member of `family` (subject to `options`), sharding
/// the members across `options.threads` workers, and merge the per-spec race
/// logs in family order.  With the same family and factory, the merged log
/// is identical for every thread count whenever the racing addresses are
/// stable across program instances (shared_program, globals/statics).  When
/// instances race on their own heap addresses, entries split by instance —
/// the dedup key includes the address — but the race set is still identical
/// up to that renaming: per normalized identity, the occurrence totals and
/// eliciting-spec sets are the same at every thread count (each family
/// member's log lands in exactly one stored entry).
SweepResult sweep_family(
    const ProgramFactory& make_program,
    const std::vector<std::unique_ptr<spec::StealSpec>>& family,
    const SweepOptions& options = {});

}  // namespace rader
