// Abstract execution engine.
//
// All Cilk-style control constructs (rader::spawn / call / sync, the reducer
// operations, and the shadow-memory annotations) dispatch through the
// thread-current Engine.  Two engines exist:
//
//  * SerialEngine (runtime/serial_engine.hpp) — executes the computation in
//    its serial (depth-first) order, simulates steals and reduce operations
//    according to a steal specification, and streams instrumentation events
//    to a Tool.  This is the engine the Peer-Set and SP+ algorithms run on.
//
//  * ParallelEngine (sched/parallel_engine.hpp) — a work-stealing thread
//    pool for real parallel execution of the same programs (uninstrumented).
//
// When no engine is installed, the control constructs degrade to plain
// serial C++ execution and reducers behave as ordinary values — programs
// written against this API are valid serial programs by construction (the
// "serial projection" of Cilk).
#pragma once

#include <cstddef>
#include <cstdint>

#include "runtime/task.hpp"
#include "runtime/types.hpp"

namespace rader {

class HyperobjectBase;

class Engine {
 public:
  virtual ~Engine() = default;

  // ---- Control constructs -------------------------------------------------

  /// True if spawn executes the child inline (serial engines); false if the
  /// caller must hand over an owning Task (parallel engines).
  virtual bool inline_tasks() const = 0;

  /// Spawn a child that is executed in place (serial engines only).
  virtual void spawn_inline(FnView fn) = 0;

  /// Spawn a child that the engine takes ownership of (parallel engines).
  virtual void spawn_task(Task task) = 0;

  /// Invoke a Cilk function as a *called* (not spawned) child frame.
  virtual void call_inline(FnView fn) = 0;

  /// cilk_sync: wait for (serially: account for) outstanding spawned
  /// children of the current frame; reduce outstanding reducer views.
  virtual void sync() = 0;

  // ---- Instrumentation ----------------------------------------------------

  /// Report an annotated memory access by the current strand.
  virtual void access(AccessKind kind, std::uintptr_t addr, std::size_t size,
                      SrcTag tag) = 0;

  /// Report that [addr, addr+size) was freed (shadow state must be dropped
  /// so a reusing allocation does not inherit stale access history).
  virtual void clear_shadow(std::uintptr_t addr, std::size_t size) = 0;

  // ---- Reducer support ----------------------------------------------------

  /// Register a reducer whose leftmost view is `leftmost_view`; invoked by
  /// reducer construction.  Emits the kCreate reducer-read.
  virtual void register_reducer(HyperobjectBase* r, void* leftmost_view,
                                SrcTag tag) = 0;

  /// Unregister at destruction; folds any outstanding views of `r` into its
  /// leftmost view.  Emits the kDestroy reducer-read.
  virtual void unregister_reducer(HyperobjectBase* r, SrcTag tag) = 0;

  /// The view of `r` for the current strand, creating an identity view
  /// lazily if the current epoch has none (the runtime's lazy view-creation
  /// semantics).  Never returns nullptr.  For reads; an Update calls
  /// begin_update instead.
  virtual void* current_view(HyperobjectBase* r, SrcTag tag) = 0;

  /// Report a reducer-read (set_value / get_value) on `r`.
  virtual void reducer_read(HyperobjectBase* r, ReducerOp op, SrcTag tag) = 0;

  /// Open an Update on `r`: resolve the current view exactly as
  /// current_view does (lazily creating an identity view), report the
  /// Update, and open the bracket that classifies the user Update code's
  /// accesses as view-aware.  Returns the view; end_update closes the
  /// bracket.  One engine call per Update keeps the hot path to a single
  /// virtual dispatch.
  virtual void* begin_update(HyperobjectBase* r, SrcTag tag) = 0;
  virtual void end_update(HyperobjectBase* r) = 0;

  // ---- Installation -------------------------------------------------------

  /// The engine the current thread is executing under (nullptr if none).
  static Engine* current() { return tl_current_; }

  /// RAII installation of an engine as the thread-current one.
  class Scope {
   public:
    explicit Scope(Engine* e) : prev_(tl_current_) { tl_current_ = e; }
    ~Scope() { tl_current_ = prev_; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Engine* prev_;
  };

 private:
  // constinit: a constant-initialized thread_local needs no TLS init
  // wrapper, so Engine::current() from any translation unit is one load.
  static inline constinit thread_local Engine* tl_current_ = nullptr;
};

}  // namespace rader
