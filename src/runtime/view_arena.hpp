// Deterministic thread-local storage for reducer identity views.
//
// Identity views used to come from plain `new`, which hands out addresses at
// the mercy of the allocator's free lists — two executions with identical
// control flow could see their views at different addresses, differing only
// in where a previous run happened to leave the heap.  Detection never cared
// (each run's shadow state is self-consistent), but prefix-sharing sweeps do
// (core/sweep.hpp): resuming a run from a checkpointed detector fork splices
// a live suffix onto recorded prefix history KEYED ON ADDRESSES, so the
// re-executed prefix must touch the very same bytes as the original run
// (SerialEngine::go_live verifies exactly that and falls back otherwise).
//
// This arena makes view placement a pure function of allocation order: a
// bump allocator over blocks that are NEVER freed, rewound to offset zero at
// the start of every serial-engine run.  Allocation #j of a run always lands
// at the same address as allocation #j of any other run on this thread, so
// any program whose view-creation order is determined by its steal decisions
// — all pure programs — becomes address-stable and prefix-shareable.
//
// The arena is thread-local (sweep workers never contend) and holds raw
// storage only: reducers placement-new views into it and run destructors on
// hyper_destroy, nothing is ever deallocated until the thread exits.  Peak
// footprint is the largest total view footprint of any single run on the
// thread, not the sum over runs.
#pragma once

#include <cstddef>

namespace rader::view_arena {

/// Storage for one identity view, aligned to `align` (which must be a power
/// of two).  Valid until the thread exits; contents survive rewind() — the
/// same address is simply handed out again in a later run.
///
/// Allocations made while NO engine is installed (Engine::current() ==
/// nullptr) are PERMANENT: they raise the rewind floor instead of being
/// reclaimed (permanent meaning until the innermost enclosing Scope exits —
/// see below).  That is what lets program fixtures built between runs (e.g.
/// the Figure-1 demo's owned list) share the arena with per-run transient
/// state: the fixture keeps its storage forever, while everything allocated
/// during a run is handed out again — at the same addresses — by the next
/// run.
void* allocate(std::size_t size, std::size_t align);

/// Reset the calling thread's allocation cursor to the floor (the high-water
/// mark of outside-run allocations), keeping every block.  Called by the
/// serial engine at the start of each run that is not nested in another
/// engine's run; all transient views from previous runs must already be
/// destroyed (the engine folds every view by run end).
/// After an abandoned resume (ResumeDiverged unwinding) leaked views are
/// reused without their destructors running — the documented leak of
/// SerialEngine::resume_from.
void rewind();

/// Bytes currently handed out since the last rewind() (tests).
std::size_t bytes_in_use();

/// Bytes below the rewind floor — permanent until a Scope containing their
/// promotion exits (tests and space accounting).
std::size_t permanent_bytes();

/// RAII bound on floor promotion.  Outside-run allocations made while a
/// Scope is alive are permanent only for the Scope's lifetime: destruction
/// restores both the allocation cursor and the rewind floor to their
/// construction-time values, handing the storage out again afterwards.
///
/// Without this, every out-of-run allocation would raise the floor of its
/// thread FOREVER — a long-lived process running many sweeps (the daemon
/// shape) grows each worker's arena monotonically, one program fixture per
/// sweep.  Sweep workers therefore wrap their whole task (fixture
/// construction + runs) in a Scope, declared before the program instance so
/// the fixture's views are destroyed before their storage is reclaimed.
///
/// Scopes are per-thread and must nest like stack frames.
class Scope {
 public:
  Scope();
  ~Scope();

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::size_t block_, offset_, in_use_;
  std::size_t floor_block_, floor_offset_, floor_in_use_;
};

}  // namespace rader::view_arena
