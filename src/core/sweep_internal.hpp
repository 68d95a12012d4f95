// Internals shared by the sweep's execution backends (core/sweep.cpp and
// core/sweep_isolated.cpp) — not part of the public sweep API.
//
// The heart is SpecExecutor: the per-spec execution engine extracted from
// the worker loops so the SAME code path runs a family member whether the
// caller is an in-process worker thread or a sandboxed child process
// (--isolate=procs).  That sharing is what makes the isolated sweep's
// surviving-spec results byte-identical to the in-process sweep's — there
// is only one way a spec gets executed.
//
// Metric accounting contract: SpecExecutor itself bumps only the metrics
// that describe work INTERNAL to a run (checkpoints, forks, resume
// fallbacks, divergence depth, the checkpoint gauge, detector-level
// counters via the run itself).  The three per-spec accounting metrics —
// kSpecRuns, kSweepDedupReuses, kSpecRunNanos — are the CALLER's job:
// thread workers bump them directly (exactly as before the extraction),
// while a sandbox child does NOT — its supervisor bumps them from the
// per-spec wire lines it actually received, so specs lost in a child crash
// are never counted and conservation (spec_runs == kSpecRuns +
// kSweepDedupReuses over the merged prefix) holds even across failures.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/race_report.hpp"
#include "core/spplus.hpp"
#include "core/sweep.hpp"
#include "runtime/serial_engine.hpp"
#include "spec/steal_spec.hpp"
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
  std::unique_ptr<Tool> tool;
  RaceLog log;
};

/// First trail index where `spec` decides differently from the recorded
/// execution — computed offline, with no program execution, because
/// specifications are pure functions of the recorded contexts.  Returns
/// trail.size() when every decision matches — identical decisions mean an
/// identical execution.
std::size_t divergence_depth(const spec::StealSpec& spec,
                             const DecisionTrail& trail);

/// Executes family members one at a time, carrying the cross-spec state the
/// prefix strategy needs (decision trail, checkpoint stack, last run's log)
/// between calls.  One instance per worker thread / per sandbox child; the
/// family, factory, and options must outlive it.  run() calls with
/// ascending indices realize the prefix strategy's trie walk: while member i
/// runs, the executor checkpoints exactly the points where a later member
/// first decides differently, so each following member resumes right at its
/// divergence.  Any order is correct (each run is self-contained), just
/// slower.  After the first resume that fails verification the executor
/// takes no more checkpoints: the program cannot resume, so every later
/// member runs fresh.
///
/// Sampling (options.sampling.enabled) forces rerun semantics internally —
/// prefix checkpoints carry detector state across specs, and each spec
/// samples a different granule set, so a resumed checkpoint would mix two
/// sample sets.
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
  /// and left UNSTAMPED (no found_under/eliciting_specs) — callers stamp
  /// with family[i]->describe() themselves.  Fires the "sweep.spec"
  /// faultpoint (detail = i) before doing anything, so injected crashes
  /// land attributably at spec granularity.
  RunOutcome run(std::size_t i, RaceLog* out);

 private:
  RunOutcome run_rerun(std::size_t i, RaceLog* out);
  RunOutcome run_prefix(std::size_t i, RaceLog* out);
  void on_point(std::size_t idx, const spec::PointCtx& ctx);
  void drop_checkpoints(std::size_t keep);

  const ProgramFactory& make_program_;
  const std::vector<std::unique_ptr<spec::StealSpec>>& family_;
  const SweepOptions& options_;
  const bool prefix_;
  bool resumable_ = true;  // false after the first ResumeDiverged

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
  Tool* cur_tool_ = nullptr;
  RaceLog* cur_out_ = nullptr;
};

/// The --isolate=procs backend (core/sweep_isolated.cpp): shard the family
/// across sandboxed child processes and supervise retries/quarantine.
/// Called by sweep_family() — use that entry point, not this one.
SweepResult sweep_family_isolated(
    const ProgramFactory& make_program,
    const std::vector<std::unique_ptr<spec::StealSpec>>& family,
    const SweepOptions& options);

}  // namespace rader::sweep_internal
