#include "sched/parallel_engine.hpp"

#include <algorithm>
#include <chrono>
#include <string>

#include "support/context.hpp"
#include "support/trace.hpp"
#include "tool/tool.hpp"

namespace rader {

ParallelEngine::ParallelEngine(unsigned workers) {
  if (workers == 0) workers = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned i = 0; i < workers; ++i) {
    auto w = std::make_unique<WorkerState>();
    w->index = i;
    w->rng.reseed(0x9e3779b97f4a7c15ull + i);
    workers_.push_back(std::move(w));
  }
  // Worker 0 is the calling thread; helpers are 1..n-1.
  for (unsigned i = 1; i < workers; ++i) {
    threads_.emplace_back([this, i] { helper_loop(i); });
  }
}

ParallelEngine::~ParallelEngine() {
  {
    // Under the lock, so a helper between its stop check and its wait
    // cannot miss the notify.
    std::lock_guard<std::mutex> lock(idle_mu_);
    stop_.store(true, std::memory_order_release);
  }
  idle_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ParallelEngine::set_tool(Tool* tool) {
  RADER_CHECK_MSG(!running_.load(std::memory_order_acquire),
                  "ParallelEngine::set_tool during a run");
  tool_ = tool;
}

void ParallelEngine::record(WorkerState& w, const ShardEvent& e) {
  if (tool_ == nullptr || w.suppress > 0 || w.frames.empty()) return;
  w.frames.back().cur->events.push_back(e);
  metrics::bump(metrics::Counter::kShardEvents);
}

void ParallelEngine::helper_loop(unsigned index) {
  WorkerState& w = *workers_[index];
  tl_worker_ = &w;
  Engine::Scope scope(this);
  while (!stop_.load(std::memory_order_acquire)) {
    std::size_t victim = 0;
    if (Join* join = steal(w, &victim)) {
      // This run's sinks: the steal's acquire orders the read after run()
      // set them, and every report into them precedes the task's done flag,
      // which run() waits for before it folds them.
      obs::Scope sinks(w.sinks);
      note_steal(victim);
      execute_child(w, join);
      continue;
    }
    // Nothing to steal: sleep until more work is spawned.  Register as a
    // sleeper, then look for work once more.  With a seq_cst fence on both
    // sides (here and in wake_helpers), a push that raced with the failed
    // steal is either seen by this look or sees the registration; in the
    // latter case the pusher takes idle_mu_, which this thread holds until
    // it waits, before it notifies.  The timeout is only a backstop.
    std::unique_lock<std::mutex> lock(idle_mu_);
    sleeping_.fetch_add(1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (!work_visible(w) && !stop_.load(std::memory_order_acquire)) {
      idle_cv_.wait_for(lock, std::chrono::milliseconds(1));
    }
    sleeping_.fetch_sub(1, std::memory_order_relaxed);
  }
  tl_worker_ = nullptr;
}

ParallelEngine::Join* ParallelEngine::steal(WorkerState& w,
                                            std::size_t* victim) {
  const std::size_t n = workers_.size();
  // A few random-victim rounds, as in the Cilk scheduler.
  for (std::size_t attempt = 0; attempt < 2 * n; ++attempt) {
    const auto v = static_cast<std::size_t>(w.rng.below(n));
    if (v == w.index) continue;
    if (workers_[v]->deque.empty()) continue;  // skip drained victims
    if (void* task = workers_[v]->deque.steal()) {
      *victim = v;
      return static_cast<Join*>(task);
    }
  }
  return nullptr;
}

void ParallelEngine::note_steal(std::size_t victim) {
  steals_.fetch_add(1, std::memory_order_relaxed);
  metrics::bump(metrics::Counter::kEngineSteals);
  // The thief counts the entry out on its own sink; the victim counted it
  // in.  Per-thread values go negative/positive, the fold sums to 0.
  metrics::gauge_add(metrics::Gauge::kDequeSize, -1);
  trace::emit(trace::EventKind::kSteal, kInvalidFrame, victim, 0);
}

bool ParallelEngine::work_visible(const WorkerState& w) const {
  for (const auto& v : workers_) {
    if (v->index != w.index && !v->deque.empty()) return true;
  }
  return false;
}

void ParallelEngine::wake_helpers() {
  // Pairs with the fence in helper_loop (see there): the push before this
  // fence and a helper's sleeper registration cannot both go unseen.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (sleeping_.load(std::memory_order_relaxed) > 0) {
    // Taking the lock orders the notify after every registered sleeper's
    // wait has begun.
    { std::lock_guard<std::mutex> lock(idle_mu_); }
    idle_cv_.notify_all();
  }
}

void ParallelEngine::run(FnView root) {
  RADER_CHECK_MSG(!running_.exchange(true), "ParallelEngine::run reentered");
  steals_.store(0, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(reg_mu_);
    reducer_ids_.clear();
    reducers_.clear();
  }
  // The helpers work on the caller's behalf, each with its own sinks from
  // the caller's context; set before the first push, so a helper's steal
  // orders its read of them.  Worker 0 reports to the caller's sinks.
  obs::Fanout helpers(obs::current(), worker_count() - 1, "pe-worker-", 1);
  for (unsigned i = 1; i < worker_count(); ++i) {
    workers_[i]->sinks = helpers.context(i);
  }
  WorkerState& w = *workers_[0];
  tl_worker_ = &w;
  trace::set_worker(0);
  trace::emit(trace::EventKind::kRunBegin, kInvalidFrame);
  {
    Engine::Scope scope(this);

    if (tool_ != nullptr) {
      replayer_ = std::make_unique<ShardReplayer>(tool_);
      replayer_->begin();
    }

    // The root frame's enter/return are minted by the replayer itself
    // (begin()/end()), so its shard holds body events only.
    Segment root_seg;
    FrameCtx frame;
    frame.seg0 = frame.cur = &root_seg;
    w.frames.push_back(std::move(frame));

    const FrameId root_tfid =
        trace::enabled()
            ? trace_frames_.fetch_add(1, std::memory_order_relaxed)
            : kInvalidFrame;
    trace::emit(trace::EventKind::kFrameEnter, root_tfid, kInvalidFrame, 0,
                static_cast<std::uint8_t>(FrameKind::kRoot));
    root();
    do_sync(w);  // implicit sync of the root frame (drains the shard too)
    trace::emit(trace::EventKind::kFrameReturn, root_tfid, kInvalidFrame, 0,
                static_cast<std::uint8_t>(FrameKind::kRoot));

    w.frames.pop_back();
    RADER_CHECK(w.frames.empty());

    // Fold any views left in the root segment into their reducers' leftmost
    // views (reducers bound lazily never had their leftmost in a segment).
    // A serial no-steal run has no counterpart for these reduces (updates
    // land directly in the leftmost view there), so the user code runs
    // suppressed.
    ++w.suppress;
    for (auto& [h, view] : root_seg.views) {
      HyperobjectBase* r;
      {
        std::lock_guard<std::mutex> lock(reg_mu_);
        r = reducers_[h];
      }
      if (r == nullptr) continue;  // destroyed during the run
      if (view != r->hyper_leftmost()) {
        r->hyper_reduce(r->hyper_leftmost(), view);
        r->hyper_destroy(view);
      }
    }
    --w.suppress;

    // The root's implicit sync drained the shard, and nothing records
    // outside a frame.
    RADER_DCHECK(root_seg.events.empty());
    if (tool_ != nullptr) {
      replayer_->end();
      replayer_.reset();
    }
  }

  // Fold the helpers' sinks into the caller's.  Every helper report happens
  // inside (or just before) an executed child, ordered before this point by
  // each child's done-flag release/acquire chain up the spawn tree, so the
  // sinks are quiescent here.
  helpers.fold();

  trace::emit(trace::EventKind::kRunEnd, kInvalidFrame,
              steals_.load(std::memory_order_relaxed), 0);
  tl_worker_ = nullptr;
  running_.store(false, std::memory_order_release);
}

void ParallelEngine::spawn_inline(FnView) {
  // Engine contract: inline_tasks() is false, so rader::spawn always hands a
  // parallel engine an owning Task.  A non-owning FnView must never reach a
  // deque (the referent dies with the spawning full-expression).
  RADER_UNREACHABLE("spawn_inline on a parallel engine");
}

void ParallelEngine::spawn_task(Task task) {
  WorkerState& w = self();
  RADER_CHECK_MSG(!w.frames.empty(), "spawn outside of ParallelEngine::run");
  FrameCtx& f = w.frames.back();
  auto join = std::make_unique<Join>(std::move(task));
  Join* j = join.get();
  f.cur = &j->cont;  // the continuation runs in a fresh segment
  f.items.push_back(std::move(join));
  w.deque.push(j);
  metrics::gauge_add(metrics::Gauge::kDequeSize, 1);
  wake_helpers();
}

void ParallelEngine::call_inline(FnView fn) {
  WorkerState& w = self();
  RADER_CHECK_MSG(!w.frames.empty(), "call outside of ParallelEngine::run");
  FrameCtx frame;
  // Series: the callee shares its parent's current segment.
  frame.seg0 = frame.cur = w.frames.back().cur;
  w.frames.push_back(std::move(frame));
  record(w, ShardEvent{ShardEvent::Kind::kFrameEnter,
                       static_cast<std::uint8_t>(FrameKind::kCalled)});
  const FrameId tfid =
      trace::enabled()
          ? trace_frames_.fetch_add(1, std::memory_order_relaxed)
          : kInvalidFrame;
  trace::emit(trace::EventKind::kFrameEnter, tfid, kInvalidFrame, 0,
              static_cast<std::uint8_t>(FrameKind::kCalled));
  fn();
  do_sync(w);
  record(w, ShardEvent{ShardEvent::Kind::kFrameReturn,
                       static_cast<std::uint8_t>(FrameKind::kCalled)});
  trace::emit(trace::EventKind::kFrameReturn, tfid, kInvalidFrame, 0,
              static_cast<std::uint8_t>(FrameKind::kCalled));
  w.frames.pop_back();
}

void ParallelEngine::execute_child(WorkerState& w, Join* join) {
  // The child's frame runs straight in the join record's segment, which is
  // published to the joining worker with the done flag.
  FrameCtx frame;
  frame.seg0 = frame.cur = &join->child;
  w.frames.push_back(std::move(frame));
  metrics::bump(metrics::Counter::kEngineTasks);
  record(w, ShardEvent{ShardEvent::Kind::kFrameEnter,
                       static_cast<std::uint8_t>(FrameKind::kSpawned)});

  const FrameId tfid =
      trace::enabled()
          ? trace_frames_.fetch_add(1, std::memory_order_relaxed)
          : kInvalidFrame;
  trace::emit(trace::EventKind::kFrameEnter, tfid, kInvalidFrame, 0,
              static_cast<std::uint8_t>(FrameKind::kSpawned));
  join->task();
  do_sync(w);  // implicit sync before "returning"
  record(w, ShardEvent{ShardEvent::Kind::kFrameReturn,
                       static_cast<std::uint8_t>(FrameKind::kSpawned)});
  trace::emit(trace::EventKind::kFrameReturn, tfid, kInvalidFrame, 0,
              static_cast<std::uint8_t>(FrameKind::kSpawned));

  w.frames.pop_back();
  join->done.store(true, std::memory_order_release);
}

void ParallelEngine::sync() {
  WorkerState& w = self();
  if (w.frames.empty()) return;
  do_sync(w);
}

void ParallelEngine::do_sync(WorkerState& w) {
  // Join: every spawned child of this frame must complete.  While waiting,
  // keep the machine busy — pop our own deque (our children / descendants)
  // or steal elsewhere.  Because the view fold below is positional, helping
  // with unrelated work never perturbs reducer semantics.
  {
    const std::size_t frame_idx = w.frames.size() - 1;
    std::size_t victim = 0;
    for (std::size_t i = 0;; ++i) {
      FrameCtx& f = w.frames[frame_idx];
      if (i >= f.items.size()) break;
      const Join& join = *f.items[i];
      while (!join.done.load(std::memory_order_acquire)) {
        if (void* task = w.deque.pop()) {
          metrics::gauge_add(metrics::Gauge::kDequeSize, -1);
          execute_child(w, static_cast<Join*>(task));
        } else if (Join* stolen = steal(w, &victim)) {
          note_steal(victim);
          execute_child(w, stolen);
        } else {
          std::this_thread::yield();
        }
      }
    }
  }
  // Fold in serial order: seg0 ⊗ child₁ ⊗ cont₁ ⊗ child₂ ⊗ cont₂ ⊗ …
  // The event shards splice in the same positional order, which is exactly
  // the depth-first order the serial engine would have visited: everything
  // a child did sits at its spawn point, before the continuation.
  FrameCtx& f = w.frames.back();
  const bool had_items = !f.items.empty();
  ++w.suppress;  // user Reduce code below has no serial-no-steal counterpart
  for (auto& join : f.items) {
    fold(*f.seg0, join->child);
    fold(*f.seg0, join->cont);
  }
  --w.suppress;
  f.items.clear();
  f.cur = f.seg0;
  // The serial engine's sync is a no-op (no event) when nothing was spawned
  // since the last sync; mirror that exactly.
  if (had_items) record(w, ShardEvent{ShardEvent::Kind::kSync});
  // Root-level syncs on worker 0 bound shard memory and detector latency:
  // everything up to here is final depth-first prefix, so replay it now.
  // (Without a tool the shard stays empty.)
  if (w.index == 0 && w.frames.size() == 1 && !f.seg0->events.empty()) {
    metrics::bump(metrics::Counter::kShardDrains);
    replayer_->feed(f.seg0->events);
    f.seg0->events.clear();
  }
  trace::emit(trace::EventKind::kSync, kInvalidFrame);
}

void ParallelEngine::fold(Segment& acc, const Segment& right) {
  acc.events.insert(acc.events.end(), right.events.begin(),
                    right.events.end());
  for (const auto& [h, view] : right.views) {
    auto it = acc.views.find(h);
    if (it == acc.views.end()) {
      acc.views.emplace(h, view);  // transplant (preserves leftmost pointers)
      continue;
    }
    HyperobjectBase* r;
    {
      // get_or_register may grow reducers_ concurrently; snapshot the
      // pointer under the registry lock (but run user Reduce code outside).
      std::lock_guard<std::mutex> lock(reg_mu_);
      r = reducers_[h];
    }
    if (r == nullptr) {
      // The reducer was destroyed while sibling segments still held views —
      // the program destroyed it before the sync that joins its updaters.
      // That is a view-read race (the kDestroy reducer-read against the
      // updates), which an attached detector reports; without the monoid we
      // can only leak the orphan view rather than abort the whole run.
      continue;
    }
    trace::emit(trace::EventKind::kReduceBegin, kInvalidFrame, h, 0);
    r->hyper_reduce(it->second, view);
    r->hyper_destroy(view);
    trace::emit(trace::EventKind::kReduceEnd, kInvalidFrame, h, 0);
  }
}

ReducerId ParallelEngine::get_or_register(HyperobjectBase* r) {
  std::lock_guard<std::mutex> lock(reg_mu_);
  auto it = reducer_ids_.find(r);
  if (it != reducer_ids_.end()) return it->second;
  const auto h = static_cast<ReducerId>(reducers_.size());
  reducers_.push_back(r);
  reducer_ids_.emplace(r, h);
  return h;
}

void ParallelEngine::register_reducer(HyperobjectBase* r, void* leftmost_view,
                                      SrcTag tag) {
  if (!running_.load(std::memory_order_acquire) || tl_worker_ == nullptr) {
    return;  // created outside the computation: bound lazily on first use
  }
  const ReducerId h = get_or_register(r);
  // The leftmost view lives in the creating strand's current segment and
  // folds leftward from there, exactly like the serial engine's base view.
  self().frames.back().cur->views[h] = leftmost_view;
  trace::emit(trace::EventKind::kViewCreate, kInvalidFrame, 0, h, /*aux=*/0);
  ShardEvent e{ShardEvent::Kind::kReducerOp,
               static_cast<std::uint8_t>(ReducerOp::kCreate)};
  e.slot = h;
  e.label = tag.label;
  record(self(), e);
}

void ParallelEngine::unregister_reducer(HyperobjectBase* r, SrcTag tag) {
  if (!running_.load(std::memory_order_acquire) || tl_worker_ == nullptr) {
    return;
  }
  ReducerId h;
  {
    std::lock_guard<std::mutex> lock(reg_mu_);
    auto it = reducer_ids_.find(r);
    if (it == reducer_ids_.end()) return;
    h = it->second;
    // Contract (as in Cilk): destroy a reducer only after the sync that
    // joins all its updaters; at that point its only view is in the current
    // segment.
    if (!self().frames.empty()) {
      self().frames.back().cur->views.erase(h);
    }
    reducers_[h] = nullptr;
    reducer_ids_.erase(it);
  }
  ShardEvent e{ShardEvent::Kind::kReducerOp,
               static_cast<std::uint8_t>(ReducerOp::kDestroy)};
  e.slot = h;
  e.label = tag.label;
  record(self(), e);
}

void* ParallelEngine::current_view(HyperobjectBase* r, SrcTag) {
  return bound_view(self(), r, get_or_register(r));
}

void* ParallelEngine::bound_view(WorkerState& w, HyperobjectBase* r,
                                 ReducerId h) {
  // The serial engine binds reducers silently at view lookups; the marker
  // pins the slot's first-contact position in the spliced stream so the
  // replayer renumbers reducers in serial bind order (tool/shard.hpp).
  ShardEvent bind{ShardEvent::Kind::kBind};
  bind.slot = h;
  record(w, bind);
  Hypermap& m = w.frames.back().cur->views;
  auto it = m.find(h);
  if (it != m.end()) return it->second;
  // Identity creation runs user code, but a serial no-steal execution never
  // creates identities (every lookup hits the leftmost view): suppress.
  ++w.suppress;
  void* view = r->hyper_create_identity();
  --w.suppress;
  m.emplace(h, view);
  trace::emit(trace::EventKind::kViewCreate, kInvalidFrame, 0, h, /*aux=*/1);
  return view;
}

void ParallelEngine::reducer_read(HyperobjectBase* r, ReducerOp op,
                                  SrcTag tag) {
  if (tool_ == nullptr || !running_.load(std::memory_order_acquire) ||
      tl_worker_ == nullptr) {
    return;
  }
  const ReducerId h = get_or_register(r);
  ShardEvent e{ShardEvent::Kind::kReducerOp, static_cast<std::uint8_t>(op)};
  e.slot = h;
  e.label = tag.label;
  record(self(), e);
}

void* ParallelEngine::begin_update(HyperobjectBase* r, SrcTag tag) {
  WorkerState& w = self();
  const ReducerId h = get_or_register(r);
  void* view = bound_view(w, r, h);
  ShardEvent e{ShardEvent::Kind::kReducerOp,
               static_cast<std::uint8_t>(ReducerOp::kUpdate)};
  e.slot = h;
  e.label = tag.label;
  record(w, e);
  return view;
}

}  // namespace rader
