// Rader: the top-level race-detection driver.
//
// Mirrors the paper's prototype workflow:
//   * check_view_read      — one Peer-Set run (serial, no steals) detects
//                            every view-read race (Theorem 4).
//   * check_determinacy    — one SP+ run under a given steal specification
//                            detects every determinacy race of that fixed
//                            execution (Section 6).
//   * check_exhaustive     — the Section 7 recipe for ostensibly
//                            deterministic programs: probe the program once
//                            to learn K (max sync-block size) and D (max
//                            spawn depth), build the O(KD + K³) family, and
//                            run SP+ under each member, guaranteeing that
//                            every possible view-aware strand is elicited
//                            and every determinacy race involving a
//                            view-oblivious strand is found.
//
// Running SP+ under a caller's own family of specifications, merging the
// reports, is sweep_family (core/sweep.hpp), which check_exhaustive uses
// too.
//
// The program under test is a callable run (possibly) many times; it must
// reset any state it mutates (the workload wrappers in src/apps do).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/peerset.hpp"
#include "core/race_report.hpp"
#include "core/spbags.hpp"
#include "core/spplus.hpp"
#include "core/sweep.hpp"
#include "runtime/run.hpp"
#include "spec/spec_family.hpp"
#include "spec/steal_spec.hpp"

namespace rader {

class Rader {
 public:
  /// Peer-Set over the serial execution: exact view-read race detection.
  /// `sampling` (off by default) wraps the detector in a SamplingTool
  /// (tool/sampling.hpp) — same for every check_* entry point below.
  static RaceLog check_view_read(FnView program,
                                 const SamplingConfig& sampling = {});

  /// Peer-Set over a REAL work-stealing execution on `workers` threads
  /// (0 = hardware concurrency): the parallel engine records per-segment
  /// event shards and replays them in depth-first order through the same
  /// detector, so the returned log is identical to check_view_read's for
  /// any worker count — detection is exact (Theorem 4) while the program
  /// runs at full parallel speed.  The program must be safe to execute in
  /// parallel (join its spawns before reading results).
  static RaceLog check_parallel(FnView program, unsigned workers = 0);

  /// SP+ over the execution fixed by `steal_spec`.
  static RaceLog check_determinacy(FnView program,
                                   const spec::StealSpec& steal_spec,
                                   const SamplingConfig& sampling = {});

  /// Baseline: classic SP-bags (reducer-oblivious, no steals) — what Cilk
  /// Screen / the Nondeterminator would report.
  static RaceLog check_spbags(FnView program,
                              const SamplingConfig& sampling = {});

  struct ExhaustiveResult {
    RaceLog log;
    SerialEngine::Stats probe_stats;  // from the no-steal probe run
    std::uint64_t spec_runs = 0;      // SP+ executions performed
    std::uint64_t specs_skipped = 0;  // family members skipped (budget/stop)
    std::uint32_t k = 0;              // sync-block size used for the family
    std::uint64_t depth = 0;          // spawn depth used for the family
    // Isolated sweeps (SweepOptions::isolation == kProcs): quarantined
    // family members (SweepResult::failures; report schema v5).
    std::vector<SweepFailure> failures;
  };

  /// Full Section-7 coverage: the Peer-Set probe runs serially on one
  /// instance from `make_program`, then SP+ sweeps the O(KD + K³) family
  /// per `options` (sweep_family).  `k_cap` / `depth_cap` bound the family
  /// for large programs (the guarantee then holds for sync blocks / depths
  /// within the caps).  With options.stop_after_first_race, a racy probe
  /// skips the family sweep entirely.  A single program that is safe to
  /// share comes in as shared_program(program).
  static ExhaustiveResult check_exhaustive(const ProgramFactory& make_program,
                                           const SweepOptions& options = {},
                                           std::uint32_t k_cap = 16,
                                           std::uint64_t depth_cap = 64);
};

}  // namespace rader
