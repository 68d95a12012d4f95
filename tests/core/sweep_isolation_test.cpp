// The crash-isolated sweep (core/sweep.hpp --isolate=procs): injected
// crashes / hangs / OOMs at chosen family indices must be retried,
// attributed, and quarantined while every surviving spec's result stays
// byte-identical to the in-process sweep's — at every jobs count and under
// both sweep strategies.
#include <gtest/gtest.h>
#include <signal.h>
#include <stdlib.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/driver.hpp"
#include "core/sweep.hpp"
#include "reducers/reducer.hpp"
#include "runtime/api.hpp"
#include "spec/steal_spec.hpp"
#include "support/faultpoint.hpp"
#include "support/metrics.hpp"
#include "support/profile.hpp"
#include "support/trace.hpp"

namespace rader {
namespace {

// Global racing addresses: stable across program instances AND across
// fork(), so child-reported races dedup byte-for-byte against in-process
// ones (the dedup key includes the address).
int g_x = 0;
int g_y = 0;

void racy_two_reads() {
  spawn([] { shadow_write(&g_x, 4, SrcTag{"writer"}); });
  shadow_read(&g_x, 4, SrcTag{"first read"});
  shadow_read(&g_x, 4, SrcTag{"second read"});
  sync();
}

void clean_disjoint() {
  spawn([] { shadow_write(&g_x, 4, SrcTag{"writer"}); });
  shadow_read(&g_y, 4, SrcTag{"reader"});
  sync();
}

// Racing accesses labelled with control characters, which JSON must
// escape as \u00XX.
void racy_control_labels() {
  spawn([] { shadow_write(&g_x, 4, SrcTag{"a\x01" "b"}); });
  shadow_write(&g_x, 4, SrcTag{"left\rwrite"});
  shadow_read(&g_x, 4, SrcTag{"x\x1f" "y"});
  sync();
}

/// NoSteal plus distinct depth specs — n unique members with unique handles.
std::vector<std::unique_ptr<spec::StealSpec>> depth_family(std::size_t n) {
  std::vector<std::unique_ptr<spec::StealSpec>> family;
  family.push_back(std::make_unique<spec::NoSteal>());
  for (std::size_t d = 1; d < n; ++d) {
    family.push_back(
        std::make_unique<spec::DepthSteal>(static_cast<std::uint32_t>(d)));
  }
  return family;
}

/// The same family with the given (sorted) indices removed — the reference
/// a faulty isolated sweep must match on its surviving members.
std::vector<std::unique_ptr<spec::StealSpec>> depth_family_without(
    std::size_t n, const std::vector<std::size_t>& skip) {
  std::vector<std::unique_ptr<spec::StealSpec>> family;
  auto full = depth_family(n);
  for (std::size_t i = 0; i < full.size(); ++i) {
    if (std::find(skip.begin(), skip.end(), i) == skip.end()) {
      family.push_back(std::move(full[i]));
    }
  }
  return family;
}

/// Arm faults for one scope and guarantee the process is clean afterwards —
/// a leaked fault would crash unrelated in-process sweeps "on purpose".
struct ScopedFaults {
  explicit ScopedFaults(const std::string& spec) {
    faultpoint::disarm_all();
    EXPECT_TRUE(faultpoint::arm(spec));
  }
  ~ScopedFaults() { faultpoint::disarm_all(); }
};

SweepResult run_in_process(
    const std::vector<std::unique_ptr<spec::StealSpec>>& family,
    std::function<void()> program) {
  SweepOptions options;
  options.threads = 1;
  return sweep_family(shared_program(std::move(program)), family, options);
}

TEST(SweepIsolation, CleanFamilyMatchesInProcessAtEveryJobsCount) {
  const auto family = depth_family(12);
  const SweepResult baseline =
      run_in_process(family, [] { clean_disjoint(); });
  ASSERT_FALSE(baseline.log.any());

  for (const unsigned jobs : {1u, 2u, 4u}) {
    SweepOptions options;
    options.isolation = SweepIsolation::kProcs;
    options.threads = jobs;
    const SweepResult result = sweep_family(
        shared_program([] { clean_disjoint(); }), family, options);
    EXPECT_EQ(result.spec_runs, family.size()) << jobs << " job(s)";
    EXPECT_EQ(result.specs_skipped, 0u);
    EXPECT_TRUE(result.failures.empty());
    EXPECT_EQ(result.log.to_json(), baseline.log.to_json())
        << jobs << " job(s)";
  }
}

TEST(SweepIsolation, ControlCharacterLabelsCrossThePipe) {
  // A child ships each spec's log as JSON; a label the writer escaped
  // wrongly made the supervisor reject the line and quarantine the spec.
  std::vector<std::unique_ptr<spec::StealSpec>> family;
  family.push_back(std::make_unique<spec::NoSteal>());
  family.push_back(std::make_unique<spec::StealAll>());
  const SweepResult baseline =
      run_in_process(family, [] { racy_control_labels(); });
  ASSERT_TRUE(baseline.log.any());

  SweepOptions options;
  options.isolation = SweepIsolation::kProcs;
  const SweepResult result = sweep_family(
      shared_program([] { racy_control_labels(); }), family, options);
  EXPECT_TRUE(result.failures.empty());
  EXPECT_EQ(result.metrics.counter(metrics::Counter::kSweepQuarantined), 0u);
  EXPECT_EQ(result.spec_runs, family.size());
  EXPECT_EQ(result.log.to_json(), baseline.log.to_json());
}

TEST(SweepIsolation, RacyFamilyByteIdenticalAcrossJobsAndStrategies) {
  const auto family = depth_family(16);
  const SweepResult baseline =
      run_in_process(family, [] { racy_two_reads(); });
  ASSERT_TRUE(baseline.log.any());

  for (const auto strategy : {SweepStrategy::kRerun, SweepStrategy::kPrefix}) {
    for (const unsigned jobs : {1u, 2u, 4u, 8u}) {
      SweepOptions options;
      options.isolation = SweepIsolation::kProcs;
      options.strategy = strategy;
      options.threads = jobs;
      const SweepResult result = sweep_family(
          shared_program([] { racy_two_reads(); }), family, options);
      EXPECT_EQ(result.spec_runs, family.size());
      EXPECT_TRUE(result.failures.empty());
      EXPECT_EQ(result.log.to_json(), baseline.log.to_json())
          << jobs << " job(s), strategy "
          << (strategy == SweepStrategy::kPrefix ? "prefix" : "rerun");
    }
  }
}

TEST(SweepIsolation, InjectedCrashIsQuarantinedAndSurvivorsMatch) {
  const std::size_t kCrashAt = 5;
  const auto family = depth_family(16);
  const auto survivors = depth_family_without(16, {kCrashAt});
  const SweepResult baseline =
      run_in_process(survivors, [] { racy_two_reads(); });

  ScopedFaults faults("sweep.spec:crash:" + std::to_string(kCrashAt));
  SweepOptions options;
  options.isolation = SweepIsolation::kProcs;
  options.threads = 2;
  options.max_retries = 1;
  const SweepResult result = sweep_family(
      shared_program([] { racy_two_reads(); }), family, options);

  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_EQ(result.failures[0].index, kCrashAt);
  EXPECT_EQ(result.failures[0].spec, family[kCrashAt]->describe());
  EXPECT_EQ(result.failures[0].cause, "signal");
  EXPECT_EQ(result.failures[0].signal, SIGSEGV);
  EXPECT_EQ(result.failures[0].retries, 1u);
  EXPECT_EQ(result.spec_runs, family.size() - 1);
  EXPECT_EQ(result.specs_skipped, 0u);
  EXPECT_EQ(result.log.to_json(), baseline.log.to_json());
}

TEST(SweepIsolation, InjectedHangTimesOutAndIsQuarantined) {
  const std::size_t kHangAt = 3;
  const auto family = depth_family(10);
  const auto survivors = depth_family_without(10, {kHangAt});
  const SweepResult baseline =
      run_in_process(survivors, [] { racy_two_reads(); });

  ScopedFaults faults("sweep.spec:hang:" + std::to_string(kHangAt));
  SweepOptions options;
  options.isolation = SweepIsolation::kProcs;
  options.threads = 2;
  options.spec_timeout_ms = 300;
  options.max_retries = 1;
  const SweepResult result = sweep_family(
      shared_program([] { racy_two_reads(); }), family, options);

  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_EQ(result.failures[0].index, kHangAt);
  EXPECT_EQ(result.failures[0].cause, "timeout");
  EXPECT_EQ(result.spec_runs, family.size() - 1);
  EXPECT_EQ(result.log.to_json(), baseline.log.to_json());
}

TEST(SweepIsolation, InjectedOomIsClassifiedAndQuarantined) {
  const std::size_t kOomAt = 4;
  const auto family = depth_family(8);
  const auto survivors = depth_family_without(8, {kOomAt});
  const SweepResult baseline =
      run_in_process(survivors, [] { racy_two_reads(); });

  ScopedFaults faults("sweep.spec:oom:" + std::to_string(kOomAt));
  SweepOptions options;
  options.isolation = SweepIsolation::kProcs;
  options.threads = 2;
  options.max_retries = 0;  // the fault is deterministic: no point retrying
  const SweepResult result = sweep_family(
      shared_program([] { racy_two_reads(); }), family, options);

  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_EQ(result.failures[0].index, kOomAt);
  EXPECT_EQ(result.failures[0].cause, "oom");
  EXPECT_EQ(result.failures[0].retries, 0u);
  EXPECT_EQ(result.spec_runs, family.size() - 1);
  EXPECT_EQ(result.log.to_json(), baseline.log.to_json());
}

TEST(SweepIsolation, PreAttributionCrashBisectsToTheCulprit) {
  // sweep.child fires BEFORE the child's first `begin`: the supervisor sees
  // an unattributable failure and must narrow it by bisection.  The fault
  // matches shard-lo 0, so only ranges starting at 0 die — bisection pins
  // index 0 and every other member survives.
  const auto family = depth_family(8);
  const auto survivors = depth_family_without(8, {0});
  const SweepResult baseline =
      run_in_process(survivors, [] { racy_two_reads(); });

  ScopedFaults faults("sweep.child:crash:0");
  SweepOptions options;
  options.isolation = SweepIsolation::kProcs;
  options.threads = 1;
  options.max_retries = 1;
  const SweepResult result = sweep_family(
      shared_program([] { racy_two_reads(); }), family, options);

  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_EQ(result.failures[0].index, 0u);
  EXPECT_EQ(result.failures[0].cause, "signal");
  EXPECT_EQ(result.spec_runs, family.size() - 1);
  EXPECT_EQ(result.log.to_json(), baseline.log.to_json());
}

TEST(SweepIsolation, WatchdogKillRecoversAStalledChild) {
  const std::size_t kHangAt = 2;
  const auto family = depth_family(8);
  const auto survivors = depth_family_without(8, {kHangAt});
  const SweepResult baseline =
      run_in_process(survivors, [] { racy_two_reads(); });

  ScopedFaults faults("sweep.spec:hang:" + std::to_string(kHangAt));
  SweepOptions options;
  options.isolation = SweepIsolation::kProcs;
  options.threads = 2;
  options.watchdog_ms = 200;  // no per-spec deadline: only the watchdog
  options.watchdog_kill = true;
  options.max_retries = 0;
  const SweepResult result = sweep_family(
      shared_program([] { racy_two_reads(); }), family, options);

  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_EQ(result.failures[0].index, kHangAt);
  EXPECT_EQ(result.failures[0].cause, "timeout");
  EXPECT_EQ(result.log.to_json(), baseline.log.to_json());
}

// --- stop-first determinism needs a family that is clean on a prefix and
// racy from a known index on (the schedule-dependent program of
// core/sweep_dedup_test.cpp, mutation-free and global-anchored).
long g_header = 0;

struct EventLog {
  std::vector<int> items;
};
struct log_monoid {
  using value_type = EventLog;
  static EventLog identity() { return {}; }
  static void reduce(EventLog& left, EventLog& right) {
    left.items.insert(left.items.end(), right.items.begin(),
                      right.items.end());
  }
};

void steal_dependent_racy() {
  reducer<log_monoid> log(SrcTag{"event log"});
  const auto append = [&](int i) {
    log.update([&](EventLog& view) {
      if (view.items.empty()) {
        shadow_write(&g_header, sizeof(g_header), SrcTag{"header init"});
      }
      view.items.push_back(i);
    });
  };
  append(-1);
  spawn([&] {
    shadow_read(&g_header, sizeof(g_header), SrcTag{"header read"});
  });
  for (int i = 0; i < 5; ++i) {
    spawn([] {});
    append(i);
  }
  sync();
}

std::vector<std::unique_ptr<spec::StealSpec>> staggered_family() {
  std::vector<std::unique_ptr<spec::StealSpec>> family;
  family.push_back(std::make_unique<spec::NoSteal>());        // clean
  family.push_back(std::make_unique<spec::DepthSteal>(100));  // clean
  family.push_back(std::make_unique<spec::DepthSteal>(3));    // racy
  family.push_back(std::make_unique<spec::StealAll>());       // racy
  family.push_back(std::make_unique<spec::DepthSteal>(2));    // racy
  return family;
}

TEST(SweepIsolation, StopFirstPrefixIsDeterministicUnderIsolation) {
  const auto family = staggered_family();
  SweepOptions serial_options;
  serial_options.threads = 1;
  serial_options.stop_after_first_race = true;
  const SweepResult baseline = sweep_family(
      shared_program([] { steal_dependent_racy(); }), family, serial_options);
  ASSERT_TRUE(baseline.log.any());
  ASSERT_EQ(baseline.spec_runs, 3u);

  for (const unsigned jobs : {1u, 2u, 4u}) {
    for (int repeat = 0; repeat < 3; ++repeat) {
      SweepOptions options;
      options.isolation = SweepIsolation::kProcs;
      options.threads = jobs;
      options.stop_after_first_race = true;
      const SweepResult result = sweep_family(
          shared_program([] { steal_dependent_racy(); }), family, options);
      EXPECT_EQ(result.spec_runs, baseline.spec_runs)
          << jobs << " job(s), repeat " << repeat;
      EXPECT_EQ(result.specs_skipped, baseline.specs_skipped)
          << jobs << " job(s), repeat " << repeat;
      EXPECT_TRUE(result.failures.empty());
      EXPECT_EQ(result.log.to_json(), baseline.log.to_json())
          << jobs << " job(s), repeat " << repeat;
    }
  }
}

TEST(SweepIsolation, IsolationCountersTrackCrashRetryQuarantine) {
  const std::size_t kCrashAt = 3;
  const auto family = depth_family(8);

  ScopedFaults faults("sweep.spec:crash:" + std::to_string(kCrashAt));
  metrics::Registry reg;
  metrics::Scope scope(&reg);
  SweepOptions options;
  options.isolation = SweepIsolation::kProcs;
  options.threads = 2;
  options.max_retries = 1;
  const SweepResult result = sweep_family(
      shared_program([] { racy_two_reads(); }), family, options);
  ASSERT_EQ(result.failures.size(), 1u);

  const metrics::Snapshot snap = reg.snapshot();
  // Initial attempt + one retry both crash.
  EXPECT_GE(snap.counter(metrics::Counter::kSweepChildCrashes), 2u);
  EXPECT_EQ(snap.counter(metrics::Counter::kSweepRetries), 1u);
  EXPECT_EQ(snap.counter(metrics::Counter::kSweepQuarantined), 1u);
  // Every salvaged spec was accounted by the supervisor, none double.
  EXPECT_EQ(snap.counter(metrics::Counter::kSpecRuns), family.size() - 1);
  // The retry relaunch landed in the restart-latency histogram.
  EXPECT_GE(snap.hist(metrics::Histogram::kChildRestartNanos).count, 1u);
}

TEST(SweepIsolation, PostmortemDirCollectsCrashDumps) {
  char tmpl[] = "/tmp/rader_pm_XXXXXX";
  char* dir = ::mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);

  const std::size_t kCrashAt = 2;
  const auto family = depth_family(6);
  ScopedFaults faults("sweep.spec:crash:" + std::to_string(kCrashAt));
  SweepOptions options;
  options.isolation = SweepIsolation::kProcs;
  options.threads = 1;
  options.max_retries = 0;
  options.postmortem_dir = dir;
  const SweepResult result = sweep_family(
      shared_program([] { racy_two_reads(); }), family, options);

  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_FALSE(result.failures[0].postmortem.empty());
  EXPECT_EQ(::access(result.failures[0].postmortem.c_str(), F_OK), 0);

  // Best-effort cleanup (the postmortem names are attempt-numbered).
  std::remove(result.failures[0].postmortem.c_str());
  ::rmdir(dir);
}

// The known observability boundary of isolation: per-spec profile nodes
// and per-worker trace tracks are recorded inside the children and are not
// shipped over the wire, so an isolated sweep's profile has only the
// supervisor's "sweep" and "sweep;merge" nodes and its trace session gains
// no "sweep-wN" track (docs/OBSERVABILITY.md).  The in-process sweep of the
// same family has both.
TEST(SweepIsolation, PerSpecProfileAndTraceStayInTheChildren) {
  const auto family = depth_family(6);
  for (const auto isolation : {SweepIsolation::kNone, SweepIsolation::kProcs}) {
    const bool in_process = isolation == SweepIsolation::kNone;
    prof::Profiler profiler;
    trace::Session session;
    {
      obs::Scope pscope(&profiler);
      TraceScope tscope(&session);
      SweepOptions options;
      options.isolation = isolation;
      options.threads = 2;
      const SweepResult result = sweep_family(
          shared_program([] { racy_two_reads(); }), family, options);
      EXPECT_EQ(result.spec_runs, family.size());
    }
    const std::string folded = prof::collapsed(profiler.root());
    EXPECT_NE(folded.find("sweep;merge "), std::string::npos) << folded;
    EXPECT_EQ(folded.find("sweep;spec") != std::string::npos, in_process)
        << folded;
    bool worker_track = false;
    for (const trace::Buffer* b : session.buffers()) {
      worker_track = worker_track || b->name().rfind("sweep-w", 0) == 0;
    }
    EXPECT_EQ(worker_track, in_process);
  }
}

// The ISSUE's acceptance bar: a 1000-spec family with one crashing and one
// hanging member completes, quarantines exactly those two, and the other
// 998 merge byte-identical to the in-process sweep — at every jobs count
// and under both strategies.
TEST(SweepIsolation, ThousandSpecAcceptance) {
  const std::size_t kN = 1000;
  const std::size_t kCrashAt = 123;
  const std::size_t kHangAt = 777;
  const auto family = depth_family(kN);
  const auto survivors = depth_family_without(kN, {kCrashAt, kHangAt});
  const SweepResult baseline =
      run_in_process(survivors, [] { racy_two_reads(); });
  ASSERT_EQ(baseline.spec_runs, kN - 2);

  ScopedFaults faults("sweep.spec:crash:" + std::to_string(kCrashAt) +
                      ",sweep.spec:hang:" + std::to_string(kHangAt));
  for (const auto strategy : {SweepStrategy::kRerun, SweepStrategy::kPrefix}) {
    for (const unsigned jobs : {1u, 2u, 4u, 8u}) {
      SweepOptions options;
      options.isolation = SweepIsolation::kProcs;
      options.strategy = strategy;
      options.threads = jobs;
      options.spec_timeout_ms = 300;
      options.max_retries = 1;
      const SweepResult result = sweep_family(
          shared_program([] { racy_two_reads(); }), family, options);

      ASSERT_EQ(result.failures.size(), 2u);
      EXPECT_EQ(result.failures[0].index, kCrashAt);
      EXPECT_EQ(result.failures[0].cause, "signal");
      EXPECT_EQ(result.failures[0].signal, SIGSEGV);
      EXPECT_EQ(result.failures[1].index, kHangAt);
      EXPECT_EQ(result.failures[1].cause, "timeout");
      EXPECT_EQ(result.spec_runs, kN - 2);
      EXPECT_EQ(result.specs_skipped, 0u);
      EXPECT_EQ(result.log.to_json(), baseline.log.to_json())
          << jobs << " job(s), strategy "
          << (strategy == SweepStrategy::kPrefix ? "prefix" : "rerun");
    }
  }
}

}  // namespace
}  // namespace rader
