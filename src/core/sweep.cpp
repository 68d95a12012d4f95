#include "core/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>

#include "core/metrics_export.hpp"
#include "core/spplus.hpp"
#include "core/sweep_internal.hpp"
#include "runtime/run.hpp"
#include "runtime/serial_engine.hpp"
#include "runtime/view_arena.hpp"
#include "support/common.hpp"
#include "support/crash.hpp"
#include "support/faultpoint.hpp"
#include "support/profile.hpp"
#include "support/rolling_rate.hpp"
#include "support/trace.hpp"

namespace rader {

namespace {

/// The sweep's monitor thread: one loop serving every live consumer —
/// the `--progress` heartbeat (rolling-window rate/ETA), the JSONL
/// metrics sampler (`--metrics-out`), the queue-depth gauge, and the hang
/// watchdog (`--watchdog-ms`).  Everything it reads is wait-free for the
/// workers: per-worker completion counters are relaxed atomics and the
/// metrics snapshot comes from the workers' SharedSnapshot slots.
class SweepMonitor {
 public:
  static bool wanted(const SweepOptions& options) {
    return options.progress || options.metrics_out != nullptr ||
           options.watchdog_ms > 0;
  }

  SweepMonitor(const SweepOptions& options, std::size_t total,
               std::vector<std::atomic<std::uint64_t>>* per_worker,
               std::atomic<std::uint64_t>* racy,
               const metrics::SharedSnapshot* live,
               metrics::Registry* monitor_reg)
      : options_(options),
        total_(total),
        per_worker_(per_worker),
        racy_(racy),
        live_(live),
        monitor_reg_(monitor_reg),
        out_(options.progress_out != nullptr ? *options.progress_out
                                             : std::cerr),
        sampler_(options.metrics_out,
                 std::max(1u, options.metrics_interval_ms)),
        heartbeat_interval_ms_(std::max(1u, options.progress_interval_ms)) {
    // Tick at the fastest cadence any consumer needs; each consumer then
    // throttles itself (the sampler internally, the heartbeat here).
    unsigned tick = heartbeat_interval_ms_;
    if (options.metrics_out != nullptr) {
      tick = std::min(tick, std::max(1u, options.metrics_interval_ms));
    }
    if (options.watchdog_ms > 0) {
      tick = std::min(tick, std::max(1u, options.watchdog_ms / 4));
    }
    tick_ms_ = std::max(1u, tick);
    rate_.sample(metrics::now_nanos(), 0);  // ETA baseline (first interval)
    last_change_nanos_ = metrics::now_nanos();
    thread_ = std::thread([this] { loop(); });
  }

  ~SweepMonitor() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
    // Workers have joined by the time the owner destroys the monitor, so
    // the final observations are exact, not approximate.
    const std::uint64_t done = total_done();
    monitor_reg_->gauge_set(metrics::Gauge::kSweepQueueDepth,
                            static_cast<std::int64_t>(total_ - done));
    if (options_.progress) out_ << line(done, /*final=*/true) << std::endl;
    if (options_.metrics_out != nullptr) {
      sampler_.final_sample(done, total_, live_->read());
    }
  }

  SweepMonitor(const SweepMonitor&) = delete;
  SweepMonitor& operator=(const SweepMonitor&) = delete;

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(tick_ms_),
                         [this] { return stop_; })) {
      tick();
    }
  }

  void tick() {
    const std::uint64_t done = total_done();
    const std::uint64_t now = metrics::now_nanos();
    monitor_reg_->gauge_set(metrics::Gauge::kSweepQueueDepth,
                            static_cast<std::int64_t>(total_ - done));
    if (options_.progress &&
        now - last_heartbeat_nanos_ >=
            std::uint64_t{heartbeat_interval_ms_} * 1'000'000) {
      last_heartbeat_nanos_ = now;
      rate_.sample(now, done);
      out_ << line(done, /*final=*/false) << std::endl;
    }
    if (options_.metrics_out != nullptr) {
      sampler_.maybe_sample(done, total_, live_->read());
    }
    if (options_.watchdog_ms > 0) {
      if (done != last_done_) {
        last_done_ = done;
        last_change_nanos_ = now;
        armed_ = true;
      } else if (armed_ && done < total_ &&
                 now - last_change_nanos_ >=
                     std::uint64_t{options_.watchdog_ms} * 1'000'000) {
        // No spec completed within the deadline: leave a post-mortem and
        // disarm until progress resumes (one report per stall episode).
        crash::write_postmortem(options_.watchdog_fd,
                                "watchdog: sweep stalled");
        monitor_reg_->bump(metrics::Counter::kPostmortemDumps);
        armed_ = false;
      }
    }
  }

  std::uint64_t total_done() const {
    std::uint64_t done = 0;
    for (const auto& w : *per_worker_) {
      done += w.load(std::memory_order_relaxed);
    }
    return done;
  }

  std::string line(std::uint64_t done, bool final) const {
    std::ostringstream workers;
    for (std::size_t w = 0; w < per_worker_->size(); ++w) {
      workers << (w == 0 ? "" : " ") << 'w' << w << ':'
              << (*per_worker_)[w].load(std::memory_order_relaxed);
    }
    const std::uint64_t remaining = total_ > done ? total_ - done : 0;
    char perf[96];
    if (final) {
      // The summary reports the true whole-run average (clamped elapsed
      // time: a sub-millisecond sweep must not print inf).
      const double secs = std::max(clock_.seconds(), 1e-9);
      std::snprintf(perf, sizeof(perf), "%.1f specs/s, %.2fs elapsed",
                    static_cast<double>(done) / secs, secs);
    } else {
      // Live rate/ETA come from the rolling window, which tracks the
      // current completion regime of front-loaded prefix sweeps.  Until
      // the window has a usable rate (first interval, or a stall) the ETA
      // is unknown — printed as "--", never nan/inf.
      const double rate = rate_.rate_per_sec();
      if (rate > 0.0) {
        std::snprintf(perf, sizeof(perf), "%.1f specs/s, eta %.1fs", rate,
                      rate_.eta_seconds(remaining));
      } else {
        std::snprintf(perf, sizeof(perf), "%.1f specs/s, eta --", rate);
      }
    }
    std::ostringstream os;
    os << (final ? "sweep done: " : "sweep: ") << done << '/' << total_
       << " specs (" << perf << ", racy "
       << racy_->load(std::memory_order_relaxed) << ") [" << workers.str()
       << ']';
    return os.str();
  }

  const SweepOptions& options_;
  const std::size_t total_;
  std::vector<std::atomic<std::uint64_t>>* per_worker_;
  std::atomic<std::uint64_t>* racy_;
  const metrics::SharedSnapshot* live_;
  metrics::Registry* monitor_reg_;
  std::ostream& out_;
  MetricsSampler sampler_;
  const unsigned heartbeat_interval_ms_;
  unsigned tick_ms_;
  support::RollingRate rate_;
  std::uint64_t last_heartbeat_nanos_ = 0;
  std::uint64_t last_done_ = 0;
  std::uint64_t last_change_nanos_ = 0;
  bool armed_ = true;
  metrics::Stopwatch clock_;
  std::thread thread_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace

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
              !options.sampling.enabled) {}

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
  RADER_CHECK_MSG(ck.tool != nullptr,
                  "prefix sweep requires a forkable detector");
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
  return prefix_ ? run_prefix(i, out) : run_rerun(i, out);
}

SpecExecutor::RunOutcome SpecExecutor::run_rerun(std::size_t i,
                                                 RaceLog* out) {
  if (!program_) program_ = make_program_();
  *out = RaceLog();
  SpPlusDetector detector(out);
  // Sampling wraps each per-spec detector with a filter seeded from the
  // spec's describe() string — deterministic and jobs-invariant.
  Tool* tool = &detector;
  std::unique_ptr<SamplingTool> sampler;
  if (options_.sampling.enabled) {
    SamplingConfig cfg = options_.sampling;
    cfg.seed = sampling_seed_for_spec(cfg.seed, family_[i]->describe());
    sampler = std::make_unique<SamplingTool>(&detector, cfg);
    tool = sampler.get();
  }
  prof::Phase spec_phase("spec");
  const std::uint64_t t0 = metrics::now_nanos();
  {
    metrics::PhaseTimer timer(metrics::Phase::kExecute);
    prof::Phase detect_phase("detect");
    run_serial(program_, tool, family_[i].get());
  }
  return {true, metrics::now_nanos() - t0};
}

SpecExecutor::RunOutcome SpecExecutor::run_prefix(std::size_t i,
                                                  RaceLog* out) {
  if (!program_) program_ = make_program_();
  prof::Phase spec_phase("spec");
  const std::size_t d = has_last_ ? divergence_depth(*family_[i], trail_) : 0;
  if (has_last_) {
    metrics::record(metrics::Histogram::kDivergenceDepth, d);
  }
  if (has_last_ && d == trail_.size()) {
    // Every decision matches the previous run: the execution would be
    // identical, so its (unstamped) log is reused verbatim.  This is common
    // in coverage families, whose members often differ only on contexts the
    // program never reaches.  Accounted by the caller so spec_runs ==
    // kSpecRuns + kSweepDedupReuses stays exact.
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
  {
    metrics::PhaseTimer timer(metrics::Phase::kExecute);
    bool fresh = ckpts_.empty();
    if (!fresh) {
      PrefixCheckpoint& ck = ckpts_.back();
      trail_.resize(d);
      *out = ck.log;
      std::unique_ptr<Tool> detector = ck.tool->fork(out);
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
        prof::Phase resume_phase("resume");
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
        resumable_ = false;
        drop_checkpoints(0);
        *out = RaceLog();
        program_ = make_program_();
        fresh = true;
      }
    }
    if (fresh) {
      // No shared prefix survives (first member, no checkpoint at or before
      // the divergence because this worker did not run the member that
      // placed it, or a program that cannot resume): fresh run.
      trail_.clear();
      SpPlusDetector detector(out);
      SerialEngine engine(&detector, family_[i].get());
      eng_ = &engine;
      cur_tool_ = &detector;
      engine.set_decision_trail(&trail_);
      if (resumable_) engine.set_point_hook(hook);
      prof::Phase detect_phase("detect");
      engine.run(program_);
    }
  }
  const std::uint64_t nanos = metrics::now_nanos() - t0;
  // The dedup shortcut needs the log as the run produced it, BEFORE
  // stamp_found_under seeds found_under/eliciting_specs.
  last_log_ = *out;
  has_last_ = true;
  return {true, nanos};
}

}  // namespace sweep_internal

ProgramFactory shared_program(std::function<void()> program) {
  return [program = std::move(program)] { return program; };
}

SweepResult sweep_family(
    const ProgramFactory& make_program,
    const std::vector<std::unique_ptr<spec::StealSpec>>& family,
    const SweepOptions& options) {
  if (options.isolation == SweepIsolation::kProcs) {
    // Crash-isolated backend (core/sweep_isolated.cpp): same per-spec
    // execution code (SpecExecutor), but sharded across sandboxed child
    // processes under a retry/quarantine supervisor.
    return sweep_internal::sweep_family_isolated(make_program, family,
                                                 options);
  }
  SweepResult result;
  const std::size_t total = family.size();
  const std::size_t n =
      (options.budget != 0 && options.budget < total)
          ? static_cast<std::size_t>(options.budget)
          : total;
  if (n == 0) {
    result.specs_skipped = total;
    return result;
  }

  unsigned threads = options.threads != 0
                         ? options.threads
                         : std::max(1u, std::thread::hardware_concurrency());
  threads = static_cast<unsigned>(
      std::min<std::size_t>(threads, n));

  // One log per family member, merged in family order afterwards: the sweep
  // result is deterministic and identical to the serial sweep's regardless
  // of thread count or scheduling.
  std::vector<RaceLog> per_spec(n);
  std::vector<char> ran(n, 0);
  std::vector<metrics::Snapshot> worker_metrics(threads);
  std::vector<prof::Profiler> worker_profs(threads);
  // Telemetry counters sampled by the progress monitor (and mirrored by the
  // per-worker metrics snapshots merged into SweepResult::metrics).
  std::vector<std::atomic<std::uint64_t>> worker_done(threads);
  std::atomic<std::uint64_t> racy_specs{0};
  std::atomic<std::size_t> next{0};
  // Live observability surface: workers overwrite their SharedSnapshot
  // slot with their current totals after every spec, and keep their
  // current spec handle in the in-flight table.  The monitor thread, the
  // watchdog, and a fatal-signal handler (support/crash.hpp) read both
  // wait-free; the final SweepResult::metrics still folds the worker
  // registries directly, so live sampling never changes the result.
  metrics::SharedSnapshot shared(threads);
  crash::InflightTable inflight;
  {
    crash::PostmortemSources sources;
    sources.metrics = &shared;
    sources.inflight = &inflight;
    sources.trace_session = trace::session();
    sources.activity = "sweep";
    crash::set_sources(sources);
  }
  // Lowest family index whose run reported a race (n = none yet).  Under
  // stop_after_first_race, "first" means lowest FAMILY INDEX, not first in
  // wall-clock order: the result is the prefix [0, first_racy], so it is
  // invariant across thread counts.  The value only decreases; a skipped
  // index never runs, so it can never become first_racy itself.
  std::atomic<std::size_t> first_racy{n};

  // Post-run bookkeeping shared by both strategies: stamp the eliciting
  // spec, publish completion (counter, live snapshot slot, in-flight
  // clear), and (stop-first) lower the racy-index minimum.
  const auto finish_spec = [&](unsigned widx, std::size_t i) {
    per_spec[i].stamp_found_under(family[i]->describe());
    ran[i] = 1;
    if (metrics::Registry* r = metrics::current()) {
      shared.publish(widx, r->snapshot());
    }
    inflight.clear(widx);
    worker_done[widx].fetch_add(1, std::memory_order_relaxed);
    if (per_spec[i].any()) {
      racy_specs.fetch_add(1, std::memory_order_relaxed);
    }
    if (options.stop_after_first_race && per_spec[i].any()) {
      std::size_t cur = first_racy.load(std::memory_order_relaxed);
      while (i < cur && !first_racy.compare_exchange_weak(
                            cur, i, std::memory_order_relaxed)) {
      }
    }
  };

  // Publish the spec a worker is about to execute so a hang or crash names
  // it in the post-mortem.
  const auto begin_spec = [&](unsigned widx, std::size_t i) {
    char text[crash::InflightTable::kChars];
    std::snprintf(text, sizeof text, "spec[%zu] %s", i,
                  family[i]->describe().c_str());
    inflight.set(widx, text);
  };

  // Per-spec accounting shared by both strategies (see the contract in
  // core/sweep_internal.hpp: these bumps are the caller's job, not the
  // executor's, so the isolated sweep's supervisor can account only the
  // specs whose results actually arrived).
  const auto account_spec = [](const sweep_internal::SpecExecutor::RunOutcome&
                                   outcome) {
    if (outcome.executed) {
      metrics::record(metrics::Histogram::kSpecRunNanos, outcome.nanos);
      metrics::bump(metrics::Counter::kSpecRuns);
    } else {
      metrics::bump(metrics::Counter::kSweepDedupReuses);
    }
  };

  const auto rerun_worker = [&](unsigned widx,
                                sweep_internal::SpecExecutor& exec) {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      // Indices above the current minimum racy index can never join the
      // result prefix (first_racy is monotonically decreasing), so abandon
      // them; indices at or below it always run, which guarantees the whole
      // prefix [0, final first_racy] executes at every thread count.
      if (i > first_racy.load(std::memory_order_relaxed)) break;
      begin_spec(widx, i);
      account_spec(exec.run(i, &per_spec[i]));
      finish_spec(widx, i);
    }
  };

  const auto prefix_worker = [&](unsigned widx,
                                 sweep_internal::SpecExecutor& exec) {
    // Claim ascending chunks instead of single indices: lexicographic
    // families are emitted in trie DFS order, so neighbouring indices share
    // the deepest prefixes, and those only pay off when the SAME worker
    // (whose trail and checkpoints describe the previous member) runs them.
    constexpr std::size_t kChunk = 8;
    for (;;) {
      const std::size_t start =
          next.fetch_add(kChunk, std::memory_order_relaxed);
      if (start >= n) break;
      const std::size_t end = std::min(start + kChunk, n);
      bool abandoned = false;
      for (std::size_t i = start; i < end; ++i) {
        // Same stop-first contract as the rerun worker.  Later indices in
        // this chunk — and any chunk claimed afterwards — are higher still,
        // so abandoning the whole worker is safe.
        if (i > first_racy.load(std::memory_order_relaxed)) {
          abandoned = true;
          break;
        }
        begin_spec(widx, i);
        account_spec(exec.run(i, &per_spec[i]));
        finish_spec(widx, i);
      }
      if (abandoned) break;
    }
  };

  const bool prefix = options.strategy == SweepStrategy::kPrefix &&
                      !options.sampling.enabled;
  const auto worker = [&](unsigned widx) {
    // Bound the thread's view-arena floor: the worker's program fixtures
    // allocate outside runs (promoting the floor), and without this a
    // long-lived process sweeping repeatedly would grow every worker
    // thread's arena monotonically.  Declared first so it is destroyed
    // last — after the program instances (and their views) are gone.
    view_arena::Scope arena_scope;
    metrics::Registry reg;
    metrics::Scope scope(&reg);
    prof::Scope pscope(&worker_profs[widx]);
    // When a tracing session is active, each sweep worker records into its
    // own buffer ("sweep-wN") — one Chrome-trace process per worker.
    trace::Session* const tsession = trace::session();
    trace::ThreadScope tscope(
        tsession != nullptr
            ? tsession->make_buffer("sweep-w" + std::to_string(widx))
            : trace::buffer());
    {
      sweep_internal::SpecExecutor exec(make_program, family, options);
      if (prefix) {
        prefix_worker(widx, exec);
      } else {
        rerun_worker(widx, exec);
      }
    }
    // Quiescent totals: the monitor's final JSONL sample reads these slots
    // after the join, so publish everything one last time.
    shared.publish(widx, reg.snapshot());
    worker_metrics[widx] = reg.snapshot();
  };

  // The sweep's own profiler aggregates the workers' phase trees under one
  // "sweep" node, then forwards to the caller's profiler (if any) — the
  // same absorb-at-join shape as the metrics registries.
  prof::Profiler* const outer_prof = prof::current();
  prof::Profiler sweep_prof;
  metrics::Registry merge_reg;
  metrics::Registry monitor_reg;
  {
    prof::Scope pscope(&sweep_prof);
    prof::Phase sweep_phase("sweep");
    {
      // Scoped so the monitor's destructor (which prints the final summary
      // line and writes the final JSONL sample) runs as soon as the workers
      // have joined.
      std::unique_ptr<SweepMonitor> monitor;
      if (SweepMonitor::wanted(options)) {
        monitor = std::make_unique<SweepMonitor>(
            options, n, &worker_done, &racy_specs, &shared, &monitor_reg);
      }
      if (threads <= 1) {
        worker(0);
      } else {
        std::vector<std::thread> pool;
        pool.reserve(threads);
        for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker, t);
        for (auto& th : pool) th.join();
      }
    }
    for (const auto& wp : worker_profs) sweep_prof.absorb(wp.root());

    // Merge exactly the deterministic prefix: everything up to and
    // including the lowest racy index (or the whole budgeted family when no
    // run raced).  Runs beyond the prefix — workers that were mid-flight on
    // a higher index when the race landed — are discarded, so race
    // identity, spec_runs, and specs_skipped are byte-identical at every
    // thread count.
    const std::size_t lowest = first_racy.load(std::memory_order_relaxed);
    const std::size_t limit = lowest < n ? lowest + 1 : n;
    {
      metrics::Scope scope(&merge_reg);
      metrics::PhaseTimer timer(metrics::Phase::kMerge);
      prof::Phase merge_phase("merge");
      for (std::size_t i = 0; i < limit; ++i) {
        RADER_CHECK_MSG(ran[i] != 0, "sweep prefix member did not run");
        result.log.merge(per_spec[i]);
        ++result.spec_runs;
      }
    }
  }
  crash::clear_sources();
  result.specs_skipped = total - result.spec_runs;
  for (const auto& wm : worker_metrics) result.metrics.add(wm);
  result.metrics.add(merge_reg.snapshot());
  result.metrics.add(monitor_reg.snapshot());
  // Forward the aggregates to the caller's registry/profiler (if installed)
  // so an outer Scope sees probe + sweep + merge in one snapshot.
  if (metrics::Registry* outer = metrics::current()) {
    outer->absorb(result.metrics);
  }
  if (outer_prof != nullptr) {
    outer_prof->absorb(sweep_prof.root());
  }
  return result;
}

}  // namespace rader
