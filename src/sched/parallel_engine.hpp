// ParallelEngine: a work-stealing runtime for real parallel execution.
//
// This is the substrate the paper's benchmarks presume — a Cilk-style
// work-stealing scheduler with reducer support.  The calling thread becomes
// worker 0 and executes the root; helper threads steal from Chase–Lev
// deques.  Scheduling is CHILD-stealing (a spawned task is pushed and the
// continuation keeps running): continuation stealing requires compiler
// support that a library cannot express.
//
// Reducer determinism under child stealing is achieved with ordered view
// segments rather than Cilk's steal-lazy hypermaps (see DESIGN.md §2).  A
// strand segment is one record: its views and its event shard.  Each frame
// keeps, in serial order, one join record per spawn — the child's folded
// segment plus the continuation segment that follows it — and the sync
// folds them left-to-right with the monoid's reduce.  Because the fold
// order is positional, not temporal, any schedule produces the serial
// projection's value for associative monoids; views are created lazily (on
// first update within a segment), so update-free segments cost nothing.
//
// Detection (set_tool): the serial detectors also run ON this engine, not
// just beside it.  With a tool attached, each segment records its
// instrumentation events into its shard (empty otherwise), the sync splices
// the shards in the same positional order as the views, and worker 0 drains
// the root frame's shard through a ShardReplayer at every root-level sync —
// so the tool receives the byte-identical control and reducer event stream
// of a serial no-steal run while the program executes on all cores
// (tool/shard.hpp has the full argument, DESIGN.md §5 the design notes).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "runtime/engine.hpp"
#include "runtime/hyperobject.hpp"
#include "sched/worksteal_deque.hpp"
#include "support/context.hpp"
#include "support/rng.hpp"
#include "tool/shard.hpp"

namespace rader {

class Tool;

class ParallelEngine final : public Engine {
 public:
  /// `workers` total workers including the calling thread (0 = hardware
  /// concurrency).
  explicit ParallelEngine(unsigned workers = 0);
  ~ParallelEngine() override;

  /// Attach `tool` (nullptr to detach) for subsequent run()s: its callbacks
  /// are invoked on worker 0, in the depth-first order of the computation,
  /// byte-identical to a serial no-steal run of the same program.  Only
  /// control and reducer events arrive: on_access and on_clear never do.
  /// The tool must outlive the runs; not callable mid-run.
  void set_tool(Tool* tool);

  /// Execute `root` to completion using all workers.  The calling thread
  /// participates; not reentrant.
  void run(FnView root);

  unsigned worker_count() const {
    return static_cast<unsigned>(workers_.size());
  }

  /// Total successful steals across the last run (scheduler telemetry).
  std::uint64_t steal_count() const {
    return steals_.load(std::memory_order_relaxed);
  }

  // ---- Engine interface ----
  bool inline_tasks() const override { return false; }
  void spawn_inline(FnView fn) override;
  void spawn_task(Task task) override;
  void call_inline(FnView fn) override;
  void sync() override;
  // A tool gets control and reducer events only: memory accesses, shadow
  // clears and the end of Update code record nothing.
  void access(AccessKind, std::uintptr_t, std::size_t, SrcTag) override {}
  void clear_shadow(std::uintptr_t, std::size_t) override {}
  void register_reducer(HyperobjectBase* r, void* leftmost_view,
                        SrcTag tag) override;
  void unregister_reducer(HyperobjectBase* r, SrcTag tag) override;
  void* current_view(HyperobjectBase* r, SrcTag tag) override;
  void reducer_read(HyperobjectBase* r, ReducerOp op, SrcTag tag) override;
  void* begin_update(HyperobjectBase* r, SrcTag tag) override;
  void end_update(HyperobjectBase*) override {}

 private:
  // Views of one segment, keyed by reducer.  std::map keeps the fold order
  // deterministic (registration order) without a sort at every fold.
  using Hypermap = std::map<ReducerId, void*>;

  // One strand segment: its views and, with a tool attached, its events.
  // A segment has one executor at a time, so neither needs a lock.
  struct Segment {
    Hypermap views;
    EventShard events;
  };

  // One spawn.  The child's frame executes straight into `child`, which is
  // published to the joining worker with `done`; `cont` is the continuation
  // segment that follows the spawn in serial order.
  struct Join {
    explicit Join(Task t) : task(std::move(t)) {}
    Task task;
    std::atomic<bool> done{false};
    Segment child;
    Segment cont;
  };

  struct FrameCtx {
    // Leftmost segment: the join's `child` for a spawned frame, the
    // parent's current segment for a called one, run()'s local for the root.
    Segment* seg0 = nullptr;
    Segment* cur = nullptr;  // segment the worker is currently in
    std::vector<std::unique_ptr<Join>> items;
  };

  struct WorkerState {
    sched::WorkStealDeque deque;
    Rng rng;
    std::vector<FrameCtx> frames;
    unsigned index = 0;
    // A helper's sinks for the current run, from run()'s obs::Fanout of the
    // caller's context (sweep workers get theirs the same way).
    obs::Context sinks;
    // Nested engine-internal user code (Reduce / CreateIdentity) whose
    // events have no counterpart in the serial no-steal stream.
    int suppress = 0;
  };

  static inline constinit thread_local WorkerState* tl_worker_ = nullptr;

  WorkerState& self() {
    RADER_CHECK_MSG(tl_worker_ != nullptr,
                    "rader parallel API used off a worker thread");
    return *tl_worker_;
  }

  void helper_loop(unsigned index);
  /// Take a task from a random victim's deque, naming it in `*victim`.
  Join* steal(WorkerState& w, std::size_t* victim);
  /// Account a successful steal on the calling thread's sinks.
  void note_steal(std::size_t victim);
  void execute_child(WorkerState& w, Join* join);
  void do_sync(WorkerState& w);
  /// Fold `right`'s views into `acc`'s and append its events to `acc`'s.
  void fold(Segment& acc, const Segment& right);
  void wake_helpers();
  /// Any other worker's deque holds a task (racy; a hint for sleepers).
  bool work_visible(const WorkerState& w) const;

  /// Append `e` to the calling worker's current segment (no-op without a
  /// tool, under suppression, or outside a frame).
  void record(WorkerState& w, const ShardEvent& e);

  ReducerId get_or_register(HyperobjectBase* r);
  /// The view of registered reducer `h` in `w`'s current segment, created
  /// lazily; records the kBind marker first.
  void* bound_view(WorkerState& w, HyperobjectBase* r, ReducerId h);

  std::vector<std::unique_ptr<WorkerState>> workers_;
  std::vector<std::thread> threads_;

  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
  std::atomic<int> sleeping_{0};
  std::atomic<std::uint64_t> steals_{0};
  // Pseudo frame ids for trace slices (real frames have no global ids here);
  // only advanced while a TraceScope is active.
  std::atomic<std::uint32_t> trace_frames_{0};

  // Written between runs only; read by workers during a run (ordered by the
  // deque push/steal that hands them their first task).
  Tool* tool_ = nullptr;
  std::unique_ptr<ShardReplayer> replayer_;  // worker 0 only

  std::mutex reg_mu_;
  std::unordered_map<HyperobjectBase*, ReducerId> reducer_ids_;
  std::vector<HyperobjectBase*> reducers_;
};

}  // namespace rader
