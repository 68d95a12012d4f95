// The --isolate=procs sweep backend: shard the family across sandboxed
// child processes (support/subprocess.hpp) under a single-threaded
// retry/quarantine supervisor.
//
// This is one of the SweepScheduler's two executors
// (core/sweep_internal.hpp): the scheduler owns stop-first admission,
// per-spec accounting, the monitor and the family-order merge; this file
// owns only how specs are executed.
//
// Topology.  The supervisor splits the budgeted family into contiguous
// shards and keeps up to `slots` children alive, each executing one
// shard's specs in ascending order through the SAME SpecExecutor the
// in-process workers use — that sharing, plus the scheduler's family-order
// merge, is what makes the surviving-spec result byte-identical to the
// in-process sweep.  Children are fork()s without exec, so the
// ProgramFactory closure runs directly in the sandbox; results come back
// over a pipe as a line protocol:
//
//   begin <i>                        about to execute family index i
//   metrics <snapshot wire>          cumulative child metrics (report_wire)
//   spec <i> <ran> <nanos> <json>    family[i]'s unstamped RaceLog::to_json()
//   done                             shard complete
//
// Each completed spec ships `metrics` THEN `spec`, so the last metrics line
// received always covers exactly the specs whose results were salvaged —
// detector work of a spec that died mid-run is never counted.  For the same
// reason the child never bumps the per-spec accounting metrics (kSpecRuns /
// kSweepDedupReuses / kSpecRunNanos); the supervisor hands each `spec` line
// it actually parses to SweepScheduler::complete(), which stamps and
// accounts it.
//
// Failure handling (docs/ROBUSTNESS.md has the full state machine).  A
// child that exits nonzero, dies on a signal, breaks protocol, or blows a
// deadline is classified (signal / timeout / oom / error) and its
// UNFINISHED range [next_expect, hi) re-enters the queue:
//   retry       while the shard has relaunches left (exponential backoff);
//   quarantine  once retries are exhausted and the culprit is attributable
//               (a `begin` with no matching `spec` names it) or the range
//               is a single spec — the spec lands in SweepResult::failures
//               and the REST of the range continues as a fresh shard;
//   bisect      retries exhausted but no attribution (the child died before
//               its first `begin`, e.g. in a constructor): split the range
//               and recurse — guaranteed to terminate at size 1.
// Salvaged results are never re-run and never double-counted.  The sweep
// therefore always completes: every index of the merged prefix either ran
// or is quarantined.
//
// The supervisor owns no threads at all — forking a multithreaded process
// is a minefield — so it ticks the scheduler's SweepMonitor
// (--progress / --metrics-out / --watchdog-ms) from its poll loop.
// --watchdog-kill escalates a stalled child from diagnosis to recovery
// through the same quarantine path.
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <ctime>
#include <deque>
#include <sstream>
#include <string>
#include <vector>

#include "core/report_wire.hpp"
#include "core/sweep.hpp"
#include "core/sweep_internal.hpp"
#include "runtime/view_arena.hpp"
#include "support/common.hpp"
#include "support/crash.hpp"
#include "support/faultpoint.hpp"
#include "support/metrics.hpp"
#include "support/subprocess.hpp"

namespace rader::sweep_internal {

namespace {

/// A contiguous range of family indices awaiting execution.
struct Shard {
  std::size_t lo = 0;
  std::size_t hi = 0;            // exclusive
  unsigned retries = 0;          // relaunches already spent on this range
  bool exhausted = false;        // bisection half of a retries-spent shard
  std::uint64_t not_before = 0;  // backoff: don't launch before this nanos
  std::uint64_t failed_at = 0;   // when the previous attempt failed (0 = ∅)
};

/// One live child slot.
struct Slot {
  subprocess::Child child;
  Shard shard;
  std::string buf;              // partial-line pipe buffer
  std::size_t next_expect = 0;  // next family index owed a `spec` line
  bool begun = false;           // `begin next_expect` seen, no `spec` yet
  bool done_seen = false;
  bool protocol_error = false;
  bool eof = false;
  bool discard = false;  // stop-first: remaining results not needed
  std::uint64_t spec_start = 0;     // when `begin` of the in-flight spec hit
  std::uint64_t last_activity = 0;  // last pipe line (watchdog-kill clock)
  metrics::Snapshot child_metrics;  // newest `metrics` line
  bool has_metrics = false;
  std::string postmortem;  // where this attempt's crash handler dumps
};

std::uint64_t ms_to_nanos(std::uint64_t ms) { return ms * 1'000'000ull; }

/// Exponential backoff before relaunching a failed shard: 25ms doubling,
/// capped at 400ms — enough to ride out transient resource exhaustion
/// without stretching deterministic-failure quarantines.
std::uint64_t backoff_nanos(unsigned retries) {
  return ms_to_nanos(25ull << std::min(retries, 4u));
}

/// Flush `text` to the pipe, raw write(2) (the child must not stdio-buffer:
/// the supervisor attributes failures by which lines ARRIVED).
void write_raw(int fd, const std::string& text) {
  const char* p = text.data();
  std::size_t left = text.size();
  while (left > 0) {
    const ssize_t w = ::write(fd, p, left);
    if (w < 0) {
      if (errno == EINTR) continue;
      return;  // supervisor gone; the child will die of SIGKILL shortly
    }
    p += static_cast<std::size_t>(w);
    left -= static_cast<std::size_t>(w);
  }
}

void write_line(int fd, const std::string& text) {
  write_raw(fd, text + "\n");
}

std::string classify(const subprocess::Status& st) {
  switch (st.kind) {
    case subprocess::ExitKind::kTimedOut:
      return "timeout";
    case subprocess::ExitKind::kSignaled:
      return "signal";
    case subprocess::ExitKind::kExited:
      return st.exit_code == subprocess::kOomExitCode ? "oom" : "error";
    default:
      return "error";
  }
}

/// The sandboxed shard runner (executes in the forked child).
int child_main(int fd, const ProgramFactory& make_program,
               const std::vector<std::unique_ptr<spec::StealSpec>>& family,
               const SweepOptions& options, const Shard& shard,
               const std::string& postmortem) {
  // Crash diagnostics: this child's fatal-signal dumps go to its own file
  // (or inherit the parent's destination when no --postmortem-dir).
  if (!postmortem.empty()) {
    crash::install_signal_handler(postmortem.c_str());
  }
  faultpoint::fire(faultpoint::kSiteSweepChild, shard.lo);
  view_arena::Scope arena_scope;
  // A metrics-only context: the registry travels back over the pipe, while
  // the supervisor's profiler and trace buffer, which fork() copied into
  // this address space, are never read again.
  metrics::Registry reg;
  obs::Scope scope(obs::Context{.registry = &reg});
  metrics::SharedSnapshot shared(1);
  crash::InflightTable inflight;
  {
    crash::PostmortemSources sources;
    sources.metrics = &shared;
    sources.inflight = &inflight;
    sources.activity = "sweep-child";
    crash::set_sources(sources);
  }
  {
    SpecExecutor exec(make_program, family, options);
    // One write(2) per spec: the previous spec's `metrics` + `spec` lines
    // ride in the same flush as the next `begin`, so the attribution
    // invariant holds (a spec's `begin` always reaches the supervisor
    // before the spec runs) at a third of the syscall/wakeup traffic.
    std::string pending;
    for (std::size_t i = shard.lo; i < shard.hi; ++i) {
      {
        char text[crash::InflightTable::kChars];
        std::snprintf(text, sizeof text, "spec[%zu] %s", i,
                      family[i]->describe().c_str());
        inflight.set(0, text);
      }
      pending += "begin " + std::to_string(i) + "\n";
      write_raw(fd, pending);
      pending.clear();
      RaceLog log;
      const SpecExecutor::RunOutcome outcome = exec.run(i, &log);
      const metrics::Snapshot snap = reg.snapshot();
      shared.publish(0, snap);
      inflight.clear(0);
      // metrics BEFORE spec: the newest metrics line the supervisor holds
      // then always covers exactly the salvaged specs.
      pending += "metrics " + snapshot_to_wire(snap) + "\n";
      std::ostringstream line;
      line << "spec " << i << ' ' << (outcome.executed ? 1 : 0) << ' '
           << outcome.nanos << ' ' << log.to_json() << '\n';
      pending += line.str();
    }
    write_raw(fd, pending);
  }
  // Final totals AFTER the executor is destroyed, so live-level gauges
  // (checkpoints) read zero, exactly like a joined in-process worker.
  write_line(fd, "metrics " + snapshot_to_wire(reg.snapshot()));
  write_line(fd, "done");
  crash::clear_sources();
  return 0;
}

}  // namespace

void run_children(SweepScheduler& sched, const ProgramFactory& make_program) {
  const std::vector<std::unique_ptr<spec::StealSpec>>& family = sched.family;
  const SweepOptions& options = sched.options;
  const unsigned threads = sched.slots;
  // Supervisor-side metrics (accounting, isolation counters) go to the
  // scheduler's registry; child registries arrive as wire snapshots, fold
  // into `child_totals`, and join the scheduler's registry at the end.
  metrics::Registry& sup_reg = sched.registry;
  metrics::Snapshot child_totals;

  // Shard geometry: ~4 shards per concurrent child bounds the work lost to
  // one crash, capped at 64 specs so a single shard can't serialize the
  // tail; at least 1.
  const std::size_t shard_size = std::clamp<std::size_t>(
      sched.n / (static_cast<std::size_t>(threads) * 4), 1, 64);
  std::deque<Shard> queue;
  for (std::size_t lo = 0; lo < sched.n; lo += shard_size) {
    Shard s;
    s.lo = lo;
    s.hi = std::min(lo + shard_size, sched.n);
    queue.push_back(s);
  }

  subprocess::Limits limits;
  limits.memory_bytes = std::uint64_t{options.child_mem_mb} * 1024 * 1024;
  if (options.spec_timeout_ms > 0) {
    // CPU-time backstop in case the supervisor itself dies: generous
    // multiple of the shard's total wall budget, so it never fires first.
    limits.cpu_seconds = std::max<unsigned>(
        5, static_cast<unsigned>(std::uint64_t{options.spec_timeout_ms} *
                                 (shard_size + 1) * 4 / 1000));
  }

  std::vector<std::unique_ptr<Slot>> slots(threads);
  unsigned attempt_counter = 0;

  // Live metrics of the children: finished ones plus the newest line of
  // each running one (the scheduler's own registry has its own slot).
  const auto publish_children = [&] {
    metrics::Snapshot live = child_totals;
    for (const auto& s : slots) {
      if (s && s->has_metrics) live.add(s->child_metrics);
    }
    sched.live.publish(0, live);
  };

  // ----- supervisor actions ----------------------------------------------

  // A failed attempt over [lo, hi): decide retry / quarantine / bisect.
  // `culprit_known` means `lo` itself is attributable (its `begin` arrived,
  // its `spec` line did not).
  const auto on_shard_failure = [&](const Shard& shard, std::size_t lo,
                                    bool culprit_known,
                                    const std::string& cause, int sig,
                                    const std::string& postmortem) {
    const std::size_t hi = shard.hi;
    if (lo >= hi) return;  // died after its last result: nothing lost
    const std::uint64_t now = metrics::now_nanos();
    if (!shard.exhausted && shard.retries < options.max_retries) {
      Shard retry;
      retry.lo = lo;
      retry.hi = hi;
      retry.retries = shard.retries + 1;
      retry.not_before = now + backoff_nanos(retry.retries);
      retry.failed_at = now;
      sup_reg.bump(metrics::Counter::kSweepRetries);
      queue.push_back(retry);
      return;
    }
    if (culprit_known || hi - lo == 1) {
      SweepFailure f;
      f.index = lo;
      f.cause = cause;
      f.signal = sig;
      f.retries = shard.retries;
      if (!postmortem.empty() && ::access(postmortem.c_str(), F_OK) == 0) {
        f.postmortem = postmortem;
      }
      sched.quarantine(std::move(f));
      if (lo + 1 < hi) {
        // The rest of the range is presumed innocent: fresh shard with a
        // fresh retry allowance.
        Shard rest;
        rest.lo = lo + 1;
        rest.hi = hi;
        rest.failed_at = now;
        queue.push_back(rest);
      }
      return;
    }
    // Retries spent, no attribution: bisect.  Halves keep `exhausted` so a
    // further unattributed failure keeps narrowing; an attributed one
    // quarantines immediately.  Terminates: every split strictly shrinks
    // the range, and size-1 ranges take the quarantine branch above.
    const std::size_t mid = lo + (hi - lo) / 2;
    for (const auto& half : {std::pair<std::size_t, std::size_t>{lo, mid},
                             std::pair<std::size_t, std::size_t>{mid, hi}}) {
      Shard s;
      s.lo = half.first;
      s.hi = half.second;
      s.retries = shard.retries;
      s.exhausted = true;
      s.not_before = now + backoff_nanos(0);
      s.failed_at = now;
      queue.push_back(s);
    }
  };

  const auto process_line = [&](unsigned widx, Slot& s,
                                const std::string& line) {
    s.last_activity = metrics::now_nanos();
    std::istringstream in(line);
    std::string verb;
    in >> verb;
    if (verb == "begin") {
      std::size_t i = 0;
      in >> i;
      if (!in || i != s.next_expect || i >= s.shard.hi) {
        s.protocol_error = true;
        return;
      }
      s.begun = true;
      s.spec_start = s.last_activity;
      sched.begin(widx, i, "child[" + std::to_string(s.child.pid()) + "] ");
    } else if (verb == "metrics") {
      const std::size_t at = line.find(' ');
      metrics::Snapshot snap;
      if (at == std::string::npos ||
          !snapshot_from_wire(line.substr(at + 1), &snap)) {
        s.protocol_error = true;
        return;
      }
      s.child_metrics = snap;
      s.has_metrics = true;
    } else if (verb == "spec") {
      std::size_t i = 0;
      SpecExecutor::RunOutcome outcome;
      in >> i >> outcome.executed >> outcome.nanos;
      std::string json;
      std::getline(in, json);
      if (!in || i != s.next_expect || i >= s.shard.hi || json.size() < 2) {
        s.protocol_error = true;
        return;
      }
      json.erase(0, 1);  // the separating space
      RaceLog log;
      std::string error;
      if (!race_log_from_json(json, &log, &error)) {
        s.protocol_error = true;
        return;
      }
      *sched.log(i) = std::move(log);
      sched.complete(widx, i, outcome, sup_reg);
      s.next_expect = i + 1;
      s.begun = false;
    } else if (verb == "done") {
      s.done_seen = true;
    } else {
      s.protocol_error = true;
    }
  };

  // Hand every complete buffered line to process_line; a discarded slot's
  // lines are dropped.
  const auto drain_lines = [&](unsigned widx, Slot& s) {
    std::size_t nl;
    while ((nl = s.buf.find('\n')) != std::string::npos) {
      const std::string line = s.buf.substr(0, nl);
      s.buf.erase(0, nl + 1);
      if (!line.empty() && !s.discard) process_line(widx, s, line);
    }
  };

  const auto spawn_shard = [&](unsigned widx, Shard shard) {
    const std::uint64_t now = metrics::now_nanos();
    if (shard.failed_at != 0) {
      // Failure-detection → replacement-spawn latency (includes backoff).
      sup_reg.record(metrics::Histogram::kChildRestartNanos,
                     now - shard.failed_at);
    }
    std::string postmortem;
    if (!options.postmortem_dir.empty()) {
      postmortem = options.postmortem_dir + "/child-" +
                   std::to_string(shard.lo) + "-" +
                   std::to_string(attempt_counter++) + ".postmortem";
    }
    auto slot = std::make_unique<Slot>();
    slot->shard = shard;
    slot->next_expect = shard.lo;
    slot->postmortem = postmortem;
    slot->last_activity = now;
    slot->child = subprocess::Child::spawn(
        [&make_program, &family, &options, shard, postmortem](int fd) {
          return child_main(fd, make_program, family, options, shard,
                            postmortem);
        },
        limits);
    if (!slot->child.valid()) {
      // fork()/pipe() failure — possibly transient resource exhaustion;
      // send the whole range through the ordinary failure path.
      on_shard_failure(shard, shard.lo, /*culprit_known=*/false, "error", 0,
                       postmortem);
      return;
    }
    slots[widx] = std::move(slot);
  };

  // Reap + account a slot whose pipe closed.
  const auto finalize_slot = [&](unsigned widx) {
    Slot& s = *slots[widx];
    if (!s.child.try_wait()) return;
    sched.inflight.clear(widx);
    const bool clean_exit =
        s.child.status().kind == subprocess::ExitKind::kExited &&
        s.child.status().exit_code == 0;
    if (s.has_metrics) {
      if (!clean_exit) {
        // A dead child's live-level gauges (checkpoints) vanished with its
        // address space: fold the high-water marks, not the levels.
        for (auto& g : s.child_metrics.gauges) g.value = 0;
      }
      child_totals.add(s.child_metrics);
    }
    const bool success = clean_exit && s.done_seen &&
                         s.next_expect >= s.shard.hi && !s.protocol_error;
    if (!s.discard && !success) {
      sup_reg.bump(metrics::Counter::kSweepChildCrashes);
      const bool culprit_known = s.begun && !s.protocol_error;
      on_shard_failure(s.shard, s.next_expect, culprit_known,
                       classify(s.child.status()),
                       s.child.status().term_signal, s.postmortem);
    }
    slots[widx].reset();
  };

  // ----- main loop --------------------------------------------------------
  SweepMonitor monitor(sched);
  for (;;) {
    std::uint64_t now = metrics::now_nanos();

    // Launch: fill free slots with eligible shards (backoff honored;
    // stop-first trims ranges past the racy prefix).
    for (unsigned w = 0; w < threads && !queue.empty(); ++w) {
      if (slots[w]) continue;
      auto it = std::find_if(queue.begin(), queue.end(),
                             [&](Shard& q) { return q.not_before <= now; });
      if (it == queue.end()) break;
      Shard shard = *it;
      queue.erase(it);
      shard.hi = std::min(shard.hi, sched.bound());
      if (shard.lo >= shard.hi) continue;
      spawn_shard(w, shard);
      now = metrics::now_nanos();
    }

    if (queue.empty() && std::all_of(slots.begin(), slots.end(),
                                     [](const auto& s) { return !s; })) {
      break;
    }

    // Drain pipes (bounded poll so deadlines and heartbeats stay live).
    {
      std::vector<int> fds;
      for (const auto& s : slots) {
        if (s && !s->eof && s->child.out_fd() >= 0) {
          fds.push_back(s->child.out_fd());
        }
      }
      if (fds.empty()) {
        struct timespec ts = {0, 5'000'000};  // 5ms: backoff/reap wait
        nanosleep(&ts, nullptr);
      } else {
        subprocess::poll_readable(fds, 20);
      }
    }
    for (unsigned w = 0; w < threads; ++w) {
      if (!slots[w]) continue;
      Slot& s = *slots[w];
      if (!s.eof && !s.child.read_available(&s.buf)) s.eof = true;
      drain_lines(w, s);
    }

    // Deadlines: per-spec timeout, watchdog-kill, stop-first discard.
    now = metrics::now_nanos();
    for (unsigned w = 0; w < threads; ++w) {
      if (!slots[w] || slots[w]->eof) continue;
      Slot& s = *slots[w];
      const bool spec_overdue =
          options.spec_timeout_ms > 0 && s.begun &&
          now - s.spec_start > ms_to_nanos(options.spec_timeout_ms);
      const bool stalled =
          options.watchdog_kill && options.watchdog_ms > 0 &&
          now - s.last_activity > ms_to_nanos(options.watchdog_ms);
      if (spec_overdue || stalled) {
        s.child.kill_timeout();
      } else if (!sched.admits(s.next_expect)) {
        // Results already salvaged stay; the rest can never join the
        // deterministic prefix.
        s.discard = true;
        s.child.kill_hard();
      } else {
        continue;
      }
      // Drain what the pipe still holds, then let finalize classify.
      while (s.child.read_available(&s.buf)) {
      }
      s.eof = true;
      drain_lines(w, s);
    }

    // Reap.
    for (unsigned w = 0; w < threads; ++w) {
      if (slots[w] && slots[w]->eof) finalize_slot(w);
    }

    publish_children();
    monitor.tick();
  }
  // Exact totals: everything has been reaped.  The monitor's last
  // observation precedes the fold, as in the in-process executor.
  monitor.finish();
  sup_reg.absorb(child_totals);
}

}  // namespace rader::sweep_internal
