// Internals shared by the sweep's scheduler and its two executors — not
// part of the public sweep API.
//
// One SweepScheduler (core/sweep.cpp) owns every sweep semantic except how
// a spec gets executed: the budget and slot clamp, the per-spec log table
// with its `ran` marks and quarantined holes, lowest-family-index
// stop-first admission, per-spec accounting, the family-order merge, the
// crash-dump sources, the profiler phases, and the SweepMonitor.  It drives
// one of two executors: an in-process thread pool (core/sweep.cpp) or
// sandboxed fork children under a retry/quarantine supervisor
// (core/sweep_isolated.cpp).
//
// Both executors run each spec through SpecExecutor, the per-spec execution
// engine, whether the caller is a worker thread or a child process.  That
// sharing is what makes the isolated sweep's surviving-spec results
// byte-identical to the in-process sweep's: there is only one way a spec
// gets executed.
//
// Metric accounting contract: SpecExecutor itself bumps only the metrics
// that describe work INTERNAL to a run (checkpoints, forks, resume
// fallbacks, divergence depth, the checkpoint gauge, detector-level
// counters via the run itself).  The three per-spec accounting metrics —
// kSpecRuns, kSweepDedupReuses, kSpecRunNanos — are bumped by
// SweepScheduler::complete(), into the registry the executor names: a
// worker thread's own registry, or the scheduler's registry for a result
// that a supervisor received over a child's pipe.  A sandbox child never
// bumps them, so specs lost in a child crash are never counted and
// conservation (spec_runs == kSpecRuns + kSweepDedupReuses over the merged
// prefix) holds even across failures.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/metrics_export.hpp"
#include "core/race_report.hpp"
#include "core/spplus.hpp"
#include "core/sweep.hpp"
#include "runtime/serial_engine.hpp"
#include "spec/steal_spec.hpp"
#include "support/crash.hpp"
#include "support/metrics.hpp"
#include "support/rolling_rate.hpp"
#include "tool/sampling.hpp"

namespace rader::sweep_internal {

/// One node of a run's checkpoint stack: the engine snapshot at a
/// continuation point, a frozen detector fork (never fed events — only
/// re-forked when a run resumes here), and the unstamped race log at capture
/// time.  The stack holds checkpoints of the latest run in increasing point
/// order; the entries at or above a divergence point stay valid for the next
/// run, which is exactly the trie structure of the family.
struct PrefixCheckpoint {
  EngineCheckpoint engine;
  std::unique_ptr<SpPlusDetector> tool;
  RaceLog log;
};

/// First trail index where `spec` decides differently from the recorded
/// execution — computed offline, with no program execution, because
/// specifications are pure functions of the recorded contexts.  Returns
/// trail.size() when every decision matches — identical decisions mean an
/// identical execution.
std::size_t divergence_depth(const spec::StealSpec& spec,
                             const DecisionTrail& trail);

/// Executes family members one at a time: the one way a family member runs.
/// One instance per worker thread / per sandbox child; the family, factory,
/// and options must outlive it.
///
/// Under the prefix strategy it carries cross-spec state between calls
/// (decision trail, checkpoint stack, last run's log).  run() calls with
/// ascending indices realize the trie walk: while member i runs, the
/// executor checkpoints exactly the points where a later member first
/// decides differently, so each following member resumes right at its
/// divergence.  Any order is correct (each run is self-contained), just
/// slower.  After the first resume that fails verification the executor
/// takes no more checkpoints: the program cannot resume, so every later
/// member runs fresh.
///
/// Rerun is the same executor with checkpointing off: no trail, no point
/// hook and no dedup reuse, so every member runs fresh.  Sampling
/// (options.sampling.enabled) forces rerun — prefix checkpoints carry
/// detector state across specs, and each spec samples a different granule
/// set, so a resumed checkpoint would mix two sample sets.
class SpecExecutor {
 public:
  SpecExecutor(const ProgramFactory& make_program,
               const std::vector<std::unique_ptr<spec::StealSpec>>& family,
               const SweepOptions& options);
  ~SpecExecutor();

  SpecExecutor(const SpecExecutor&) = delete;
  SpecExecutor& operator=(const SpecExecutor&) = delete;

  struct RunOutcome {
    bool executed = false;     // false = prefix dedup reused the last log
    std::uint64_t nanos = 0;   // execution wall time (0 when !executed)
  };

  /// Execute (or dedup-reuse) family[i] into `*out`, which is overwritten
  /// and left UNSTAMPED (no found_under/eliciting_specs) — the scheduler
  /// stamps it when the result is complete()d.  Fires the "sweep.spec"
  /// faultpoint (detail = i) before doing anything, so injected crashes
  /// land attributably at spec granularity.
  RunOutcome run(std::size_t i, RaceLog* out);

  /// Whether runs share prefixes (kPrefix without sampling), decided once.
  bool prefix() const { return prefix_; }

 private:
  void on_point(std::size_t idx, const spec::PointCtx& ctx);
  void drop_checkpoints(std::size_t keep);

  const ProgramFactory& make_program_;
  const std::vector<std::unique_ptr<spec::StealSpec>>& family_;
  const SweepOptions& options_;
  const bool prefix_;
  bool checkpointing_;  // prefix_, until the first ResumeDiverged

  std::function<void()> program_;        // this executor's program instance
  DecisionTrail trail_;                  // decisions of the latest run
  std::vector<PrefixCheckpoint> ckpts_;  // checkpoints along it, ascending
  RaceLog last_log_;                     // latest run's UNSTAMPED log
  bool has_last_ = false;

  // Live-run plumbing for the point hook.  Members in (cur_, scan_end_)
  // have not yet decided differently from the running member cur_.
  std::size_t cur_ = 0;
  std::size_t scan_end_ = 0;
  SerialEngine* eng_ = nullptr;
  SpPlusDetector* cur_tool_ = nullptr;
  RaceLog* cur_out_ = nullptr;
};

/// The one sweep scheduler.  Executors call admits()/begin()/log()/
/// complete() (and, isolated, quarantine()) from any number of worker
/// threads or from one supervisor loop; everything they touch is either
/// indexed by family member or slot, or atomic.
class SweepScheduler {
 public:
  using Family = std::vector<std::unique_ptr<spec::StealSpec>>;

  SweepScheduler(const Family& family, const SweepOptions& options);

  /// Runs the admitted family on `slots` workers or children.  It must
  /// complete() or quarantine() every index below the final bound(), and
  /// folds the metrics of its workers or children into `registry`.
  using Executor = void (*)(SweepScheduler&, const ProgramFactory&);

  /// The whole sweep: run `execute`, then merge in family order.
  SweepResult run(Executor execute, const ProgramFactory& make_program);

  const Family& family;
  const SweepOptions& options;
  const std::size_t n;   // budgeted family size
  const unsigned slots;  // worker threads / concurrent children, <= n

  /// The sweep's metrics: the monitor's, the per-spec accounting and
  /// isolation counters of an isolated supervisor, the merge's, and — once
  /// the executor has quiesced — its workers' or children's.
  metrics::Registry registry;

  /// Live metrics, read wait-free by the monitor and the crash handler: one
  /// slot per worker (an isolated sweep folds its children into slot 0),
  /// plus slot `slots` for `registry`, which the monitor publishes.
  metrics::SharedSnapshot live;

  /// The spec each slot is executing, named in post-mortems.
  crash::InflightTable inflight;

  /// Stop-first admission.  Under stop_after_first_race "first" means
  /// LOWEST FAMILY INDEX, not first in wall-clock order: the result is the
  /// prefix [0, first racy index], so it is invariant across slot counts.
  /// The racy minimum only decreases, so an index it rejects never runs and
  /// can never become the minimum itself.
  bool admits(std::size_t i) const {
    return i <= first_racy_.load(std::memory_order_relaxed);
  }

  /// One past the highest index that can still join the merged prefix.
  std::size_t bound() const {
    const std::size_t lowest = first_racy_.load(std::memory_order_relaxed);
    return lowest < n ? lowest + 1 : n;
  }

  /// Publish that `slot` is about to execute family[i] ("<who>spec[i] …").
  void begin(unsigned slot, std::size_t i, const std::string& who = "");

  /// Where family[i]'s unstamped log goes before complete().
  RaceLog* log(std::size_t i) { return &per_spec_[i]; }

  /// family[i] ran on `slot`: stamp its log, account it into `reg`, count it
  /// done, and lower the racy minimum.
  void complete(unsigned slot, std::size_t i,
                const SpecExecutor::RunOutcome& outcome,
                metrics::Registry& reg);

  /// family[failure.index] is given up on (isolated sweeps): a hole the
  /// merge reports in SweepResult::failures.  Fills in failure.spec.
  void quarantine(SweepFailure failure);

  std::uint64_t done() const;  // completed + quarantined
  std::uint64_t done_by(unsigned slot) const {
    return slot_done_[slot].load(std::memory_order_relaxed);
  }
  std::uint64_t racy() const { return racy_.load(std::memory_order_relaxed); }

 private:
  // One log per family member, merged in family order afterwards: the
  // result is identical to the serial sweep's whatever the slot count.
  std::vector<RaceLog> per_spec_;
  std::vector<char> ran_;
  std::map<std::size_t, SweepFailure> quarantined_;
  std::vector<std::atomic<std::uint64_t>> slot_done_;
  std::atomic<std::uint64_t> racy_{0};
  std::atomic<std::size_t> first_racy_;  // n = no racy member yet
};

/// The sweep's one monitor: the `--progress` heartbeat (rolling-window
/// rate/ETA), the JSONL metrics sampler (`--metrics-out`), the queue-depth
/// gauge, and the hang watchdog (`--watchdog-ms`), advanced by tick().  The
/// in-process executor ticks it on a monitor thread; the isolated
/// supervisor, which owns no threads, ticks it from its poll loop.  Every
/// consumer waits one full interval after construction before its first
/// line, so a sweep shorter than its intervals prints only the summary
/// line and writes only the quiesced sample.
class SweepMonitor {
 public:
  static bool wanted(const SweepOptions& options) {
    return options.progress || options.metrics_out != nullptr ||
           options.watchdog_ms > 0;
  }

  explicit SweepMonitor(SweepScheduler& sched);

  /// The fastest cadence any consumer needs; each throttles itself.
  unsigned tick_ms() const;

  void tick();

  /// The exact final observations, once the executor has quiesced: queue
  /// depth, the summary line, and the quiesced JSONL sample.
  void finish();

 private:
  /// Set the queue-depth gauge and publish the scheduler's registry into
  /// its live slot; returns the done count.
  std::uint64_t observe();
  std::string line(std::uint64_t done, bool final) const;

  SweepScheduler& sched_;
  std::ostream& out_;
  MetricsSampler sampler_;
  support::RollingRate rate_;
  metrics::Stopwatch clock_;
  const std::uint64_t start_;
  std::uint64_t last_heartbeat_;
  std::uint64_t last_done_ = 0;
  std::uint64_t last_change_;
  bool armed_ = true;
};

/// The executors.  In-process: a thread pool (core/sweep.cpp).  Isolated
/// (--isolate=procs): sandboxed fork children (core/sweep_isolated.cpp).
void run_threads(SweepScheduler& sched, const ProgramFactory& make_program);
void run_children(SweepScheduler& sched, const ProgramFactory& make_program);

}  // namespace rader::sweep_internal
