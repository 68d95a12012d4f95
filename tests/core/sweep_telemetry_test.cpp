// Sweep accounting and telemetry: the --stop-first invariants the JSON
// report relies on (spec_runs + specs_skipped == family size; replay
// handles only from the executed prefix's racy specs), invariance across
// thread counts, and the --progress heartbeat stream.  Every case runs on
// both executors of the one sweep scheduler: the in-process thread pool and
// the fork children of --isolate=procs.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/mylist.hpp"
#include "core/driver.hpp"
#include "core/report_json.hpp"
#include "core/sweep.hpp"
#include "reducers/reducer.hpp"
#include "runtime/api.hpp"
#include "spec/steal_spec.hpp"

namespace rader {
namespace {

using apps::list_monoid;
using apps::MyList;

// The Figure 1 program again (fig_examples_test.cpp): clean serially, racy
// only under steal specs — which makes the stop-first prefix nontrivial.
void update_list(int n, MyList& list) {
  call([&] {
    reducer<list_monoid> list_reducer(SrcTag{"list_reducer"});
    list_reducer.set_value(list, SrcTag{"set_value(list)"});
    parallel_for_flat<int>(
        0, n,
        [&](int i) {
          list_reducer.update([&](MyList& view) { view.insert(i); },
                              SrcTag{"list insert"});
        },
        /*chunks=*/6);
    sync();
    list = list_reducer.take_value(SrcTag{"get_value()"});
  });
}

void race_fig1(int n, MyList& list) {
  int length = 0;
  MyList copy(list);  // BUG: shallow copy
  spawn([&] { length = list.scan(SrcTag{"scan_list"}); });
  update_list(n, copy);
  sync();
  (void)length;
}

struct Fig1Instance {
  MyList owned;
  apps::ListNode* owned_tail = nullptr;
  Fig1Instance() {
    for (int i = 0; i < 8; ++i) owned.insert(100 + i);
    auto* n = const_cast<apps::ListNode*>(owned.head());
    while (n->next != nullptr) n = n->next;
    owned_tail = n;
  }
  ~Fig1Instance() { owned.destroy(); }
  void operator()() {
    MyList working = owned;
    race_fig1(6, working);
    // The Reduce-side concat appends onto `owned`'s tail through the shallow
    // copies.  Detach the appendage so every run observes the identical
    // 8-node list: sweep workers reuse one instance across family members,
    // so sweep programs must be re-runnable (tools/rader_cli.cpp does the
    // same for the CLI's fig1 target).
    owned_tail->next = nullptr;
  }
};

ProgramFactory fig1_factory() {
  return [] {
    auto p = std::make_shared<Fig1Instance>();
    return std::function<void()>([p] { (*p)(); });
  };
}

/// Family whose first racy member sits at index 2: two spec that cannot
/// steal anything, then the Figure 1 eliciting triple, then two more
/// racy specs that a stop-first sweep must skip.
std::vector<std::unique_ptr<spec::StealSpec>> mixed_family() {
  std::vector<std::unique_ptr<spec::StealSpec>> family;
  family.push_back(std::make_unique<spec::NoSteal>());
  family.push_back(std::make_unique<spec::DepthSteal>(99));  // never fires
  family.push_back(std::make_unique<spec::TripleSteal>(0, 1, 2));
  family.push_back(std::make_unique<spec::StealAll>());
  family.push_back(std::make_unique<spec::TripleSteal>(1, 2, 3));
  return family;
}

constexpr SweepIsolation kExecutors[] = {SweepIsolation::kNone,
                                         SweepIsolation::kProcs};

const char* executor_name(SweepIsolation isolation) {
  return isolation == SweepIsolation::kNone ? "in-process" : "isolate=procs";
}

TEST(SweepStopFirst, AccountingPartitionsTheFamily) {
  const auto family = mixed_family();
  for (const SweepIsolation isolation : kExecutors) {
    SCOPED_TRACE(executor_name(isolation));
    for (const unsigned threads : {1u, 2u, 4u}) {
      SweepOptions opt;
      opt.isolation = isolation;
      opt.threads = threads;
      opt.stop_after_first_race = true;
      const SweepResult result = sweep_family(fig1_factory(), family, opt);
      // The executed prefix is [0, 2]: both clean specs plus the first racy
      // member; everything after it is skipped.  The partition invariant the
      // JSON "sweep" block exposes must hold exactly.
      EXPECT_EQ(result.spec_runs, 3u) << "threads=" << threads;
      EXPECT_EQ(result.specs_skipped, 2u) << "threads=" << threads;
      EXPECT_EQ(result.spec_runs + result.specs_skipped, family.size());
      EXPECT_TRUE(result.log.any());
      // Replay handles name only the prefix's racy specs — never a skipped
      // spec, never a clean one.
      for (const std::string& h : replay_handles(result.log)) {
        EXPECT_EQ(h, "steal-triple(0,1,2)") << "threads=" << threads;
      }
      EXPECT_TRUE(result.failures.empty());
    }
  }
}

TEST(SweepStopFirst, BudgetCapsBeforeTheRacySpec) {
  const auto family = mixed_family();
  for (const SweepIsolation isolation : kExecutors) {
    SCOPED_TRACE(executor_name(isolation));
    SweepOptions opt;
    opt.isolation = isolation;
    opt.threads = 2;
    opt.stop_after_first_race = true;
    opt.budget = 2;  // only the two clean members run
    const SweepResult result = sweep_family(fig1_factory(), family, opt);
    EXPECT_EQ(result.spec_runs, 2u);
    EXPECT_EQ(result.specs_skipped, 3u);
    EXPECT_EQ(result.spec_runs + result.specs_skipped, family.size());
    EXPECT_FALSE(result.log.any());
    EXPECT_TRUE(replay_handles(result.log).empty());
  }
}

TEST(SweepStopFirst, FullSweepStillPartitions) {
  const auto family = mixed_family();
  for (const SweepIsolation isolation : kExecutors) {
    SCOPED_TRACE(executor_name(isolation));
    SweepOptions opt;
    opt.isolation = isolation;
    opt.threads = 2;
    const SweepResult result = sweep_family(fig1_factory(), family, opt);
    EXPECT_EQ(result.spec_runs, family.size());
    EXPECT_EQ(result.specs_skipped, 0u);
    // All three racy specs appear as replay handles now.
    const auto handles = replay_handles(result.log);
    EXPECT_FALSE(handles.empty());
    for (const std::string& h : handles) {
      EXPECT_TRUE(h == "steal-triple(0,1,2)" || h == "steal-all" ||
                  h == "steal-triple(1,2,3)")
          << h;
    }
  }
}

TEST(SweepProgress, HeartbeatAndSummaryLinesAreEmitted) {
  const auto family = mixed_family();
  for (const SweepIsolation isolation : kExecutors) {
    SCOPED_TRACE(executor_name(isolation));
    std::ostringstream captured;
    SweepOptions opt;
    opt.isolation = isolation;
    opt.threads = 2;
    opt.progress = true;
    opt.progress_interval_ms = 1;  // fast sweep: force at least the summary
    opt.progress_out = &captured;
    const SweepResult result = sweep_family(fig1_factory(), family, opt);
    EXPECT_EQ(result.spec_runs, family.size());
    const std::string out = captured.str();
    // The final summary line is always printed, with totals, throughput and
    // the per-worker breakdown.
    EXPECT_NE(out.find("sweep done: 5/5 specs ("), std::string::npos) << out;
    EXPECT_NE(out.find("specs/s"), std::string::npos);
    // The racy-spec count matches what checking each member serially finds.
    std::size_t expected_racy = 0;
    for (const auto& s : family) {
      if (Rader::check_determinacy(fig1_factory()(), *s).any()) ++expected_racy;
    }
    EXPECT_GE(expected_racy, 1u);
    EXPECT_NE(out.find("racy " + std::to_string(expected_racy)),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("[w0:"), std::string::npos);
    EXPECT_NE(out.find("w1:"), std::string::npos);
  }
}

// A sweep shorter than its intervals writes nothing until it finishes: the
// progress stream is just the summary line, and the JSONL stream is just the
// quiesced final sample.  Every consumer of the monitor waits one interval
// before its first line, whether a monitor thread or a poll loop ticks it.
TEST(SweepProgress, IntervalsLongerThanTheSweepWriteOnlyTheFinalLines) {
  const auto family = mixed_family();
  for (const SweepIsolation isolation : kExecutors) {
    SCOPED_TRACE(executor_name(isolation));
    std::ostringstream progress;
    std::ostringstream samples;
    SweepOptions opt;
    opt.isolation = isolation;
    opt.threads = 2;
    opt.progress = true;
    opt.progress_interval_ms = 60'000;
    opt.progress_out = &progress;
    opt.metrics_out = &samples;
    opt.metrics_interval_ms = 60'000;
    const SweepResult result = sweep_family(fig1_factory(), family, opt);
    EXPECT_EQ(result.spec_runs, family.size());

    const std::string out = progress.str();
    EXPECT_EQ(out.rfind("sweep done: 5/5 specs (", 0), 0u) << out;
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 1) << out;

    const std::string jsonl = samples.str();
    EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 1) << jsonl;
    EXPECT_NE(jsonl.find("\"done\":5,"), std::string::npos) << jsonl;
    EXPECT_NE(jsonl.find("\"total\":5"), std::string::npos) << jsonl;
  }
}

// Degenerate families used to hit zero denominators in the heartbeat math
// (size-0/size-1 families and sub-interval completions divided by a zero
// elapsed time / zero remaining count): the stream must stay finite.
TEST(SweepProgress, SingleSpecFamilyEmitsFiniteNumbersOnly) {
  std::vector<std::unique_ptr<spec::StealSpec>> family;
  family.push_back(std::make_unique<spec::NoSteal>());
  for (const SweepIsolation isolation : kExecutors) {
    SCOPED_TRACE(executor_name(isolation));
    std::ostringstream captured;
    SweepOptions opt;
    opt.isolation = isolation;
    opt.threads = 1;
    opt.progress = true;
    opt.progress_interval_ms = 1;
    opt.progress_out = &captured;
    const SweepResult result = sweep_family(fig1_factory(), family, opt);
    EXPECT_EQ(result.spec_runs, 1u);
    const std::string out = captured.str();
    EXPECT_NE(out.find("1/1 specs"), std::string::npos) << out;
    EXPECT_EQ(out.find("nan"), std::string::npos) << out;
    EXPECT_EQ(out.find("inf"), std::string::npos) << out;
  }
}

TEST(SweepProgress, DisabledByDefault) {
  const auto family = mixed_family();
  for (const SweepIsolation isolation : kExecutors) {
    SCOPED_TRACE(executor_name(isolation));
    std::ostringstream captured;
    SweepOptions opt;
    opt.isolation = isolation;
    opt.threads = 1;
    opt.progress_out = &captured;  // progress stays false
    (void)sweep_family(fig1_factory(), family, opt);
    EXPECT_TRUE(captured.str().empty());
  }
}

// Metric conservation: however the family is sharded (jobs) and executed
// (strategy), the folded counters must account for exactly the work the
// sweep reports, and every flow gauge must return to zero once the workers
// quiesce.
TEST(SweepMetrics, ConservationAcrossJobsAndStrategies) {
  const auto family = mixed_family();
  for (const SweepIsolation isolation : kExecutors) {
    SCOPED_TRACE(executor_name(isolation));
    for (const SweepStrategy strategy :
         {SweepStrategy::kRerun, SweepStrategy::kPrefix}) {
      for (const unsigned threads : {1u, 2u, 4u, 8u}) {
        SweepOptions opt;
        opt.isolation = isolation;
        opt.threads = threads;
        opt.strategy = strategy;
        const SweepResult result = sweep_family(fig1_factory(), family, opt);
        const char* tag =
            strategy == SweepStrategy::kRerun ? "rerun" : "prefix";
        EXPECT_EQ(result.spec_runs, family.size())
            << tag << " threads=" << threads;
        // Counter conservation: every accounted member was either executed
        // (kSpecRuns) or satisfied by the prefix dedup shortcut
        // (kSweepDedupReuses) — nothing double-counted, nothing lost.
        EXPECT_EQ(result.metrics.counter(metrics::Counter::kSpecRuns) +
                      result.metrics.counter(
                          metrics::Counter::kSweepDedupReuses),
                  result.spec_runs)
            << tag << " threads=" << threads;
        if (strategy == SweepStrategy::kRerun) {
          EXPECT_EQ(
              result.metrics.counter(metrics::Counter::kSweepDedupReuses), 0u)
              << "threads=" << threads;
        }
        // Flow gauges fold to zero after quiesce: every prefix checkpoint
        // retained during the run was dropped again.
        const metrics::GaugeCell& live =
            result.metrics.gauge(metrics::Gauge::kSweepCheckpointsLive);
        EXPECT_EQ(live.value, 0) << tag << " threads=" << threads;
        if (strategy == SweepStrategy::kPrefix) {
          EXPECT_GT(live.max, 0) << "prefix threads=" << threads;
        }
        // Histogram conservation (rerun only: the prefix strategy times its
        // resumed tails differently): one kSpecRunNanos observation per run.
        if (strategy == SweepStrategy::kRerun) {
          EXPECT_EQ(result.metrics.hist(metrics::Histogram::kSpecRunNanos)
                        .count,
                    result.spec_runs)
              << "threads=" << threads;
        }
        EXPECT_EQ(result.spec_runs + result.failures.size() +
                      result.specs_skipped,
                  family.size())
            << tag << " threads=" << threads;
      }
    }
  }
}

TEST(SweepMetrics, JsonlSamplerWritesAQuiescedFinalSample) {
  const auto family = mixed_family();
  for (const SweepIsolation isolation : kExecutors) {
    SCOPED_TRACE(executor_name(isolation));
    std::ostringstream samples;
    SweepOptions opt;
    opt.isolation = isolation;
    opt.threads = 2;
    opt.metrics_out = &samples;
    opt.metrics_interval_ms = 1;
    const SweepResult result = sweep_family(fig1_factory(), family, opt);
    EXPECT_EQ(result.spec_runs, family.size());
    // At least the final quiesced sample was appended; the last line reports
    // the complete sweep and the exact folded spec_runs counter.
    std::istringstream in(samples.str());
    std::string line;
    std::string last;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
      ++lines;
      EXPECT_NE(line.find("\"t_ms\":"), std::string::npos);
      last = line;
    }
    ASSERT_GE(lines, 1u);
    EXPECT_NE(last.find("\"done\":5"), std::string::npos) << last;
    EXPECT_NE(last.find("\"total\":5"), std::string::npos) << last;
    EXPECT_NE(last.find("\"sweep.spec_runs\":5"), std::string::npos) << last;
  }
}

TEST(SweepWatchdog, FiresAPostmortemWhenNoSpecCompletes) {
  // One spec whose execution stalls well past the watchdog deadline.
  std::vector<std::unique_ptr<spec::StealSpec>> family;
  family.push_back(std::make_unique<spec::NoSteal>());

  for (const SweepIsolation isolation : kExecutors) {
    SCOPED_TRACE(executor_name(isolation));
    char path[] = "/tmp/rader_watchdog_XXXXXX";
    const int fd = ::mkstemp(path);
    ASSERT_GE(fd, 0);

    SweepOptions opt;
    opt.isolation = isolation;
    opt.threads = 1;
    opt.watchdog_ms = 20;
    opt.watchdog_fd = fd;
    const SweepResult result = sweep_family(
        shared_program([] {
          std::this_thread::sleep_for(std::chrono::milliseconds(200));
        }),
        family, opt);
    EXPECT_EQ(result.spec_runs, 1u);
    // The monitor observed the stall, dumped once, and accounted for it.
    EXPECT_GE(result.metrics.counter(metrics::Counter::kPostmortemDumps), 1u);

    std::string report;
    char buf[4096];
    ::lseek(fd, 0, SEEK_SET);
    ssize_t n;
    while ((n = ::read(fd, buf, sizeof buf)) > 0) report.append(buf, n);
    ::close(fd);
    ::unlink(path);
    EXPECT_NE(report.find("watchdog"), std::string::npos) << report;
    EXPECT_NE(report.find("sweep"), std::string::npos) << report;
    // The in-flight table names the stalled spec.
    EXPECT_NE(report.find("spec[0] no-steals"), std::string::npos) << report;
  }
}

TEST(SweepWatchdog, QuietWhenSpecsCompleteInTime) {
  const auto family = mixed_family();
  for (const SweepIsolation isolation : kExecutors) {
    SCOPED_TRACE(executor_name(isolation));
    char path[] = "/tmp/rader_watchdog_XXXXXX";
    const int fd = ::mkstemp(path);
    ASSERT_GE(fd, 0);
    SweepOptions opt;
    opt.isolation = isolation;
    opt.threads = 2;
    opt.watchdog_ms = 60'000;  // far beyond the sweep's wall time
    opt.watchdog_fd = fd;
    const SweepResult result = sweep_family(fig1_factory(), family, opt);
    EXPECT_EQ(result.spec_runs, family.size());
    EXPECT_EQ(result.metrics.counter(metrics::Counter::kPostmortemDumps), 0u);
    ::lseek(fd, 0, SEEK_SET);
    char buf[8];
    EXPECT_EQ(::read(fd, buf, sizeof buf), 0);  // nothing written
    ::close(fd);
    ::unlink(path);
  }
}

}  // namespace
}  // namespace rader
