#include "core/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <iostream>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "core/metrics_export.hpp"
#include "core/spplus.hpp"
#include "core/sweep_internal.hpp"
#include "runtime/serial_engine.hpp"
#include "runtime/view_arena.hpp"
#include "support/common.hpp"
#include "support/context.hpp"
#include "support/crash.hpp"
#include "support/faultpoint.hpp"
#include "support/profile.hpp"
#include "support/rolling_rate.hpp"

namespace rader {

namespace sweep_internal {

namespace {

/// The decision `spec` takes at a continuation point whose pre-merge context
/// is `ctx`.  The steal query context is the pre-merge context with the
/// merges applied: post-merge live_epochs is exactly `pre - merges` (the
/// engine's frame sync discipline guarantees nested Reduce frames restore
/// the epoch stack).
PointDecision decide(const spec::StealSpec& spec, const spec::PointCtx& ctx) {
  PointDecision d{ctx, std::min(spec.merges_now(ctx), ctx.live_epochs), false};
  spec::PointCtx after = ctx;
  after.live_epochs -= d.merges;
  d.stole = spec.steal(after);
  return d;
}

bool same_decision(const PointDecision& a, const PointDecision& b) {
  return a.merges == b.merges && a.stole == b.stole;
}

}  // namespace

std::size_t divergence_depth(const spec::StealSpec& spec,
                             const DecisionTrail& trail) {
  for (std::size_t i = 0; i < trail.size(); ++i) {
    if (!same_decision(decide(spec, trail[i].ctx), trail[i])) return i;
  }
  return trail.size();
}

SpecExecutor::SpecExecutor(
    const ProgramFactory& make_program,
    const std::vector<std::unique_ptr<spec::StealSpec>>& family,
    const SweepOptions& options)
    : make_program_(make_program),
      family_(family),
      options_(options),
      // Sampling forces the rerun strategy: prefix checkpoints carry
      // detector state across specs, and each spec samples a DIFFERENT
      // granule set (per-spec seed), so a resumed checkpoint would mix two
      // sample sets.
      prefix_(options.strategy == SweepStrategy::kPrefix &&
              !options.sampling.enabled),
      checkpointing_(prefix_) {}

SpecExecutor::~SpecExecutor() { drop_checkpoints(0); }

/// Capture hook shared by fresh and resumed runs: snapshot the engine and
/// fork the detector exactly where a later member will resume.  Specs are
/// pure functions of the point context, so the members after cur_ are
/// evaluated here, in family order.  A member j resumes at its first
/// divergence from this run only if no member between cur_ and j diverged
/// earlier (that member's run would then be j's trail); so the scan stops
/// at the lowest member already seen to diverge, and a point is
/// checkpointed when it is a new record low.
void SpecExecutor::on_point(std::size_t idx, const spec::PointCtx& ctx) {
  if (cur_ + 1 >= scan_end_) return;
  const PointDecision mine = decide(*family_[cur_], ctx);
  std::size_t j = cur_ + 1;
  while (j < scan_end_ && same_decision(decide(*family_[j], ctx), mine)) ++j;
  if (j == scan_end_) return;
  scan_end_ = j;
  // A resumed run's first live point already has its checkpoint.
  if (!ckpts_.empty() && ckpts_.back().engine.point == idx) return;
  PrefixCheckpoint ck;
  eng_->capture(&ck.engine);
  ck.tool = cur_tool_->fork(nullptr);
  ck.log = *cur_out_;
  ckpts_.push_back(std::move(ck));
  metrics::bump(metrics::Counter::kSweepCheckpoints);
  metrics::gauge_add(metrics::Gauge::kSweepCheckpointsLive, 1);
}

/// Every checkpoint counted in must be counted out, whichever of the three
/// drop sites (divergence trim, fallback, executor destruction)
/// releases it — the folded gauge level is 0 once every executor is gone.
void SpecExecutor::drop_checkpoints(std::size_t keep) {
  while (ckpts_.size() > keep) {
    ckpts_.pop_back();
    metrics::gauge_add(metrics::Gauge::kSweepCheckpointsLive, -1);
  }
}

SpecExecutor::RunOutcome SpecExecutor::run(std::size_t i, RaceLog* out) {
  faultpoint::fire(faultpoint::kSiteSweepSpec,
                   static_cast<std::uint64_t>(i));
  if (!program_) program_ = make_program_();
  prof::Phase spec_phase("spec");
  // Only a prefix executor keeps its last run (has_last_).
  const std::size_t d = has_last_ ? divergence_depth(*family_[i], trail_) : 0;
  if (has_last_) {
    metrics::record(metrics::Histogram::kDivergenceDepth, d);
  }
  if (has_last_ && d == trail_.size()) {
    // Every decision matches the previous run: the execution would be
    // identical, so its (unstamped) log is reused verbatim.  This is common
    // in coverage families, whose members often differ only on contexts the
    // program never reaches.  Accounted by SweepScheduler::complete() so
    // spec_runs == kSpecRuns + kSweepDedupReuses stays exact.
    *out = last_log_;
    return {false, 0};
  }
  // Checkpoints past the divergence belong to the abandoned suffix.
  {
    std::size_t keep = ckpts_.size();
    while (keep > 0 && ckpts_[keep - 1].engine.point > d) --keep;
    drop_checkpoints(keep);
  }
  *out = RaceLog();
  cur_out_ = out;
  cur_ = i;
  scan_end_ = family_.size();
  const auto hook = [this](std::size_t idx, const spec::PointCtx& ctx) {
    on_point(idx, ctx);
  };
  const std::uint64_t t0 = metrics::now_nanos();
  bool fresh = ckpts_.empty();
  if (!fresh) {
    PrefixCheckpoint& ck = ckpts_.back();
    trail_.resize(d);
    *out = ck.log;
    std::unique_ptr<SpPlusDetector> detector = ck.tool->fork(out);
    metrics::bump(metrics::Counter::kSweepForks);
    SerialEngine engine(detector.get(), family_[i].get());
    eng_ = &engine;
    cur_tool_ = detector.get();
    engine.set_decision_trail(&trail_);
    engine.set_point_hook(hook);
    SerialEngine::ResumePlan plan;
    plan.replay = &trail_;
    plan.replay_count = d;
    plan.live_from = ck.engine.point;
    // Verified (then dropped) before the hook can grow `ckpts_` and
    // invalidate this pointer.
    plan.expect = &ck.engine;
    try {
      prof::Phase resume_phase("resume", metrics::Phase::kExecute);
      engine.resume_from(program_, plan);
    } catch (const ResumeDiverged&) {
      // The re-executed prefix did not regenerate the checkpointed state
      // (go_live verification, serial_engine.hpp): the program is not an
      // address-stable pure function of the decisions, so its runs cannot
      // share prefixes.  Degrade to rerun semantics for this member and
      // every later one: drop every checkpoint (their forks describe
      // executions this program cannot reproduce) and the possibly
      // dirtied instance, take no more checkpoints, and run fresh.
      // Correctness is preserved — only the speedup is lost — and the
      // fallback is visible as kSweepResumeFallbacks in rader.report.
      metrics::bump(metrics::Counter::kSweepResumeFallbacks);
      checkpointing_ = false;
      drop_checkpoints(0);
      *out = RaceLog();
      program_ = make_program_();
      fresh = true;
    }
  }
  if (fresh) {
    // No shared prefix survives (every rerun member; the first prefix
    // member; no checkpoint at or before the divergence because this worker
    // did not run the member that placed it; or a program that cannot
    // resume): fresh run.  Sampling (rerun only) wraps the detector with a
    // filter seeded from the spec's describe() string — deterministic and
    // jobs-invariant.
    trail_.clear();
    SpPlusDetector detector(out);
    SpecSampler sampler(&detector, options_.sampling, family_[i]->describe());
    SerialEngine engine(sampler.tool(), family_[i].get());
    eng_ = &engine;
    cur_tool_ = &detector;
    if (prefix_) engine.set_decision_trail(&trail_);
    if (checkpointing_) engine.set_point_hook(hook);
    prof::Phase detect_phase("detect", metrics::Phase::kExecute);
    engine.run(program_);
  }
  const std::uint64_t nanos = metrics::now_nanos() - t0;
  if (prefix_) {
    // The dedup shortcut needs the log as the run produced it, BEFORE
    // stamp_found_under seeds found_under/eliciting_specs.
    last_log_ = *out;
    has_last_ = true;
  }
  return {true, nanos};
}

SweepScheduler::SweepScheduler(const Family& fam, const SweepOptions& opts)
    : family(fam),
      options(opts),
      n(opts.budget != 0 && opts.budget < fam.size()
            ? static_cast<std::size_t>(opts.budget)
            : fam.size()),
      slots(static_cast<unsigned>(std::min<std::size_t>(
          opts.threads != 0
              ? opts.threads
              : std::max(1u, std::thread::hardware_concurrency()),
          n))),
      live(slots + 1),
      per_spec_(n),
      ran_(n, 0),
      slot_done_(slots),
      first_racy_(n) {}

void SweepScheduler::begin(unsigned slot, std::size_t i,
                           const std::string& who) {
  char text[crash::InflightTable::kChars];
  std::snprintf(text, sizeof text, "%sspec[%zu] %s", who.c_str(), i,
                family[i]->describe().c_str());
  inflight.set(slot, text);
}

void SweepScheduler::complete(unsigned slot, std::size_t i,
                              const SpecExecutor::RunOutcome& outcome,
                              metrics::Registry& reg) {
  per_spec_[i].stamp_found_under(family[i]->describe());
  ran_[i] = 1;
  if (outcome.executed) {
    reg.record(metrics::Histogram::kSpecRunNanos, outcome.nanos);
    reg.bump(metrics::Counter::kSpecRuns);
  } else {
    reg.bump(metrics::Counter::kSweepDedupReuses);
  }
  inflight.clear(slot);
  slot_done_[slot].fetch_add(1, std::memory_order_relaxed);
  if (!per_spec_[i].any()) return;
  racy_.fetch_add(1, std::memory_order_relaxed);
  if (options.stop_after_first_race) {
    std::size_t cur = first_racy_.load(std::memory_order_relaxed);
    while (i < cur && !first_racy_.compare_exchange_weak(
                          cur, i, std::memory_order_relaxed)) {
    }
  }
}

void SweepScheduler::quarantine(SweepFailure failure) {
  failure.spec = family[failure.index]->describe();
  registry.bump(metrics::Counter::kSweepQuarantined);
  quarantined_.emplace(failure.index, std::move(failure));
}

std::uint64_t SweepScheduler::done() const {
  std::uint64_t done = quarantined_.size();
  for (unsigned w = 0; w < slots; ++w) done += done_by(w);
  return done;
}

SweepResult SweepScheduler::run(Executor execute,
                                const ProgramFactory& make_program) {
  SweepResult result;
  if (n == 0) {
    result.specs_skipped = family.size();
    return result;
  }
  const obs::Context outer = obs::current();
  {
    crash::PostmortemSources sources;
    sources.metrics = &live;
    sources.inflight = &inflight;
    sources.trace_session = outer.session;
    sources.activity = "sweep";
    crash::set_sources(sources);
  }
  // The scheduler's registry is the sweep's sink: the executor folds its
  // workers or children into it, and the merge's accounting lands in it.
  // The "sweep" phase opens on the caller's profiler, if any, so worker
  // trees fold in beneath it.
  std::size_t limit = 0;
  {
    obs::Scope scope(&registry);
    prof::Phase sweep_phase("sweep");
    execute(*this, make_program);

    // Merge exactly the deterministic prefix: everything up to and
    // including the lowest racy index (or the whole budgeted family when no
    // run raced), skipping quarantined holes.  Runs beyond the prefix —
    // in flight on a higher index when the race landed — are discarded, so
    // race identity, spec_runs, and specs_skipped are byte-identical at
    // every slot count and under either executor.
    limit = bound();
    prof::Phase merge_phase("merge", metrics::Phase::kMerge);
    for (std::size_t i = 0; i < limit; ++i) {
      if (ran_[i] != 0) {
        result.log.merge(per_spec_[i]);
        ++result.spec_runs;
        continue;
      }
      const auto it = quarantined_.find(i);
      RADER_CHECK_MSG(it != quarantined_.end(),
                      "sweep left a hole in the merged prefix");
      result.failures.push_back(it->second);
    }
  }
  crash::clear_sources();
  result.specs_skipped = family.size() - limit;
  RADER_CHECK_MSG(result.spec_runs + result.failures.size() +
                          result.specs_skipped ==
                      family.size(),
                  "sweep accounting does not partition the family");
  result.metrics = registry.snapshot();
  // Forward the aggregate to the caller's registry (if installed) so an
  // outer Scope sees probe + sweep + merge in one snapshot.
  if (outer.registry != nullptr) outer.registry->absorb(result.metrics);
  return result;
}

SweepMonitor::SweepMonitor(SweepScheduler& sched)
    : sched_(sched),
      out_(sched.options.progress_out != nullptr
               ? *sched.options.progress_out
               : std::cerr),
      sampler_(sched.options.metrics_out,
               std::max(1u, sched.options.metrics_interval_ms)),
      start_(metrics::now_nanos()),
      last_heartbeat_(start_),
      last_change_(start_) {
  rate_.sample(start_, 0);  // ETA baseline (first interval)
  // The family starts whole, so the depth gauge's max is its size however
  // late the first tick comes.
  observe();
}

namespace {

std::uint64_t interval_nanos(unsigned ms) {
  return std::uint64_t{std::max(1u, ms)} * 1'000'000;
}

}  // namespace

unsigned SweepMonitor::tick_ms() const {
  const SweepOptions& o = sched_.options;
  unsigned tick = std::max(1u, o.progress_interval_ms);
  if (o.metrics_out != nullptr) {
    tick = std::min(tick, std::max(1u, o.metrics_interval_ms));
  }
  if (o.watchdog_ms > 0) {
    tick = std::min(tick, std::max(1u, o.watchdog_ms / 4));
  }
  return tick;
}

std::uint64_t SweepMonitor::observe() {
  const std::uint64_t done = sched_.done();
  sched_.registry.gauge_set(metrics::Gauge::kSweepQueueDepth,
                            static_cast<std::int64_t>(sched_.n - done));
  sched_.live.publish(sched_.slots, sched_.registry.snapshot());
  return done;
}

void SweepMonitor::tick() {
  const SweepOptions& o = sched_.options;
  const std::uint64_t done = observe();
  const std::uint64_t now = metrics::now_nanos();
  if (o.progress &&
      now - last_heartbeat_ >= interval_nanos(o.progress_interval_ms)) {
    last_heartbeat_ = now;
    rate_.sample(now, done);
    out_ << line(done, /*final=*/false) << std::endl;
  }
  if (o.metrics_out != nullptr &&
      now - start_ >= interval_nanos(o.metrics_interval_ms)) {
    sampler_.maybe_sample(done, sched_.n, sched_.live.read());
  }
  if (o.watchdog_ms > 0) {
    if (done != last_done_) {
      last_done_ = done;
      last_change_ = now;
      armed_ = true;
    } else if (armed_ && done < sched_.n &&
               now - last_change_ >= interval_nanos(o.watchdog_ms)) {
      // No spec completed within the deadline: leave a post-mortem and
      // disarm until progress resumes (one report per stall episode).
      // Diagnosis only; an isolated sweep's --watchdog-kill recovery is
      // the supervisor's.
      crash::write_postmortem(o.watchdog_fd, "watchdog: sweep stalled");
      sched_.registry.bump(metrics::Counter::kPostmortemDumps);
      armed_ = false;
    }
  }
}

void SweepMonitor::finish() {
  const std::uint64_t done = observe();
  if (sched_.options.progress) {
    out_ << line(done, /*final=*/true) << std::endl;
  }
  if (sched_.options.metrics_out != nullptr) {
    sampler_.final_sample(done, sched_.n, sched_.live.read());
  }
}

std::string SweepMonitor::line(std::uint64_t done, bool final) const {
  std::ostringstream workers;
  for (unsigned w = 0; w < sched_.slots; ++w) {
    workers << (w == 0 ? "" : " ") << 'w' << w << ':' << sched_.done_by(w);
  }
  const std::uint64_t remaining = sched_.n > done ? sched_.n - done : 0;
  char perf[96];
  if (final) {
    // The summary reports the true whole-run average (clamped elapsed
    // time: a sub-millisecond sweep must not print inf).
    const double secs = std::max(clock_.seconds(), 1e-9);
    std::snprintf(perf, sizeof(perf), "%.1f specs/s, %.2fs elapsed",
                  static_cast<double>(done) / secs, secs);
  } else {
    // Live rate/ETA come from the rolling window, which tracks the current
    // completion regime of front-loaded prefix sweeps.  Until the window
    // has a usable rate (first interval, or a stall) the ETA is unknown —
    // printed as "--", never nan/inf.
    const double rate = rate_.rate_per_sec();
    if (rate > 0.0) {
      std::snprintf(perf, sizeof(perf), "%.1f specs/s, eta %.1fs", rate,
                    rate_.eta_seconds(remaining));
    } else {
      std::snprintf(perf, sizeof(perf), "%.1f specs/s, eta --", rate);
    }
  }
  std::ostringstream os;
  os << (final ? "sweep done: " : "sweep: ") << done << '/' << sched_.n
     << " specs (" << perf << ", racy " << sched_.racy() << ") ["
     << workers.str() << ']';
  return os.str();
}

void run_threads(SweepScheduler& sched, const ProgramFactory& make_program) {
  // When the caller traces, each worker records into its own buffer
  // ("sweep-wN") — one Chrome-trace process per worker.
  obs::Fanout sinks(obs::current(), sched.slots, "sweep-w");
  std::atomic<std::size_t> next{0};

  const auto worker = [&](unsigned w) {
    // Bound the thread's view-arena floor: the worker's program fixtures
    // allocate outside runs (promoting the floor), and without this a
    // long-lived process sweeping repeatedly would grow every worker
    // thread's arena monotonically.  Declared first so it is destroyed
    // last — after the program instances (and their views) are gone.
    view_arena::Scope arena_scope;
    const obs::Context ctx = sinks.context(w);
    obs::Scope scope(ctx);
    metrics::Registry& reg = *ctx.registry;
    {
      SpecExecutor exec(make_program, sched.family, sched.options);
      // Prefix workers claim ascending chunks instead of single indices:
      // lexicographic families are emitted in trie DFS order, so
      // neighbouring indices share the deepest prefixes, and those only pay
      // off when the SAME worker (whose trail and checkpoints describe the
      // previous member) runs them.
      const std::size_t chunk = exec.prefix() ? 8 : 1;
      for (;;) {
        const std::size_t start =
            next.fetch_add(chunk, std::memory_order_relaxed);
        if (start >= sched.n) break;
        const std::size_t end = std::min(start + chunk, sched.n);
        std::size_t i = start;
        for (; i < end && sched.admits(i); ++i) {
          sched.begin(w, i);
          sched.complete(w, i, exec.run(i, sched.log(i)), reg);
          sched.live.publish(w, reg.snapshot());
        }
        // An index the scheduler no longer admits ends the worker: every
        // later claim is higher still.
        if (i < end) break;
      }
    }
    // Quiescent totals: the monitor's final JSONL sample reads these slots
    // after the join, so publish everything one last time.
    sched.live.publish(w, reg.snapshot());
  };

  std::optional<SweepMonitor> monitor;
  if (SweepMonitor::wanted(sched.options)) monitor.emplace(sched);
  {
    // The monitor thread ticks until the workers have joined.
    std::mutex mu;
    std::condition_variable cv;
    bool stop = false;
    std::thread ticker;
    if (monitor) {
      ticker = std::thread([&] {
        std::unique_lock<std::mutex> lock(mu);
        const std::chrono::milliseconds every(monitor->tick_ms());
        while (!cv.wait_for(lock, every, [&] { return stop; })) {
          monitor->tick();
        }
      });
    }
    if (sched.slots <= 1) {
      worker(0);
    } else {
      std::vector<std::thread> pool;
      pool.reserve(sched.slots);
      for (unsigned t = 0; t < sched.slots; ++t) pool.emplace_back(worker, t);
      for (auto& th : pool) th.join();
    }
    if (ticker.joinable()) {
      {
        std::lock_guard<std::mutex> lock(mu);
        stop = true;
      }
      cv.notify_all();
      ticker.join();
    }
  }
  // The monitor's last observation precedes the fold: the live view sums
  // the worker slots and the scheduler's registry as it was before them.
  if (monitor) monitor->finish();
  sinks.fold();
}

}  // namespace sweep_internal

ProgramFactory shared_program(std::function<void()> program) {
  return [program = std::move(program)] { return program; };
}

SweepResult sweep_family(
    const ProgramFactory& make_program,
    const std::vector<std::unique_ptr<spec::StealSpec>>& family,
    const SweepOptions& options) {
  sweep_internal::SweepScheduler sched(family, options);
  return sched.run(options.isolation == SweepIsolation::kProcs
                       ? sweep_internal::run_children
                       : sweep_internal::run_threads,
                   make_program);
}

}  // namespace rader
