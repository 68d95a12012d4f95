// Regression tests for the specification-sweep engine (core/sweep.hpp) and
// its deduplication layer (core/race_report.hpp).
//
// A family sweep re-elicits the same race under many steal specifications;
// the merged log must collapse each (location, access-pair, kind) identity
// into ONE stored report that carries every eliciting spec and the total
// occurrence count — while the parallel sweep must produce a log identical
// to the serial sweep's at every thread count.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "core/driver.hpp"
#include "core/sweep.hpp"
#include "reducers/reducer.hpp"
#include "runtime/api.hpp"
#include "spec/steal_spec.hpp"

#include "../serial_family.hpp"

namespace rader {
namespace {

// Shared across program instances on purpose: the racing address is stable,
// so parallel-sweep logs can be compared byte-for-byte with serial ones.
// The program only ANNOTATES accesses (shadow_read/shadow_write record, they
// do not touch memory), so concurrent sweep workers are safe.
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

std::vector<std::unique_ptr<spec::StealSpec>> three_specs() {
  std::vector<std::unique_ptr<spec::StealSpec>> family;
  family.push_back(std::make_unique<spec::NoSteal>());
  family.push_back(std::make_unique<spec::DepthSteal>(1));
  family.push_back(std::make_unique<spec::StealAll>());
  return family;
}

// --- A program racy only under SOME specs (the schedule-dependent bug of
// core/schedule_bug_test.cpp, mutation-free so sweep workers can run it
// concurrently): lazy per-view initialization annotates a write that only
// executes on stolen schedules.
long g_header = 0;  // address anchor only; never actually written

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
  append(-1);  // serial-schedule initialization, before any spawn
  spawn([&] {
    shadow_read(&g_header, sizeof(g_header), SrcTag{"header read"});
  });
  for (int i = 0; i < 5; ++i) {
    spawn([] {});
    append(i);
  }
  sync();
}

// Clean prefix, then several racy specs: under stop_after_first_race the
// deterministic answer is the prefix [0, 2] — index 2 is the FIRST racy
// family member even when a worker finishes index 3 or 4 earlier.
std::vector<std::unique_ptr<spec::StealSpec>> staggered_family() {
  std::vector<std::unique_ptr<spec::StealSpec>> family;
  family.push_back(std::make_unique<spec::NoSteal>());        // clean
  family.push_back(std::make_unique<spec::DepthSteal>(100));  // clean
  family.push_back(std::make_unique<spec::DepthSteal>(3));    // racy
  family.push_back(std::make_unique<spec::StealAll>());       // racy
  family.push_back(std::make_unique<spec::DepthSteal>(2));    // racy
  return family;
}

TEST(SweepDedup, CheckWithFamilyCollapsesPerSpecDuplicates) {
  // Two racing access pairs (writer/first read, writer/second read) on a
  // 4-byte word, tracked at byte granularity: 8 distinct (address, label)
  // identities per run.  Each is elicited by all three specs, so the merged
  // log stores exactly those 8 — each with occurrences == 3 and the full
  // eliciting-spec set — while the global counter still tallies every
  // dynamic observation (8 x 3 specs).
  const auto family = three_specs();
  const RaceLog log =
      sweep_family(shared_program([] { racy_two_reads(); }), family).log;

  EXPECT_EQ(log.determinacy_count(), 24u);
  ASSERT_EQ(log.determinacy_races().size(), 8u);
  for (std::size_t j = 0; j < log.determinacy_races().size(); ++j) {
    const auto& race = log.determinacy_races()[j];
    EXPECT_EQ(race.occurrences, 3u) << race.current_label;
    EXPECT_EQ(race.found_under, family[0]->describe());
    ASSERT_EQ(race.eliciting_specs.size(), 3u) << race.current_label;
    for (std::size_t i = 0; i < family.size(); ++i) {
      EXPECT_EQ(race.eliciting_specs[i], family[i]->describe());
    }
    EXPECT_EQ(race.current_label, j < 4 ? "first read" : "second read");
    EXPECT_EQ(race.addr,
              reinterpret_cast<std::uintptr_t>(&g_x) + (j % 4));
  }
}

TEST(SweepDedup, ParallelSweepLogIdenticalToSerialAtEveryThreadCount) {
  const auto family = three_specs();
  const RaceLog serial =
      testing::serial_family_log([] { racy_two_reads(); }, family);
  const ProgramFactory factory = shared_program([] { racy_two_reads(); });

  for (const unsigned threads : {1u, 2u, 4u}) {
    SweepOptions options;
    options.threads = threads;
    const SweepResult result = sweep_family(factory, family, options);
    EXPECT_EQ(result.spec_runs, family.size()) << threads << " thread(s)";
    EXPECT_EQ(result.specs_skipped, 0u);
    EXPECT_EQ(result.log.to_json(), serial.to_json())
        << threads << " thread(s)";
  }
}

TEST(SweepDedup, BudgetCapsRunsAndCountsSkips) {
  const auto family = three_specs();
  SweepOptions options;
  options.budget = 2;
  const SweepResult result = sweep_family(
      shared_program([] { racy_two_reads(); }), family, options);
  EXPECT_EQ(result.spec_runs, 2u);
  EXPECT_EQ(result.specs_skipped, 1u);
  ASSERT_EQ(result.log.determinacy_races().size(), 8u);
  for (const auto& race : result.log.determinacy_races()) {
    EXPECT_EQ(race.occurrences, 2u);  // only the two budgeted specs ran
    EXPECT_EQ(race.eliciting_specs.size(), 2u);
  }
}

TEST(SweepDedup, StopAfterFirstRaceSkipsTheTail) {
  const auto family = three_specs();
  SweepOptions options;
  options.stop_after_first_race = true;
  const SweepResult result = sweep_family(
      shared_program([] { racy_two_reads(); }), family, options);
  EXPECT_TRUE(result.log.any());
  EXPECT_EQ(result.spec_runs, 1u);  // the very first spec already races
  EXPECT_EQ(result.specs_skipped, 2u);
}

TEST(SweepDedup, StopFirstMeansLowestFamilyIndexAtEveryThreadCount) {
  // Verify the precondition: the family is clean at 0-1 and racy at 2-4.
  {
    const auto family = staggered_family();
    for (std::size_t i = 0; i < family.size(); ++i) {
      const RaceLog log = Rader::check_determinacy(
          [] { steal_dependent_racy(); }, *family[i]);
      EXPECT_EQ(log.any(), i >= 2) << family[i]->describe();
    }
  }

  // Baseline: the serial stop-first sweep runs exactly the prefix [0, 2].
  const auto family = staggered_family();
  const ProgramFactory factory =
      shared_program([] { steal_dependent_racy(); });
  SweepOptions serial_options;
  serial_options.threads = 1;
  serial_options.stop_after_first_race = true;
  const SweepResult baseline = sweep_family(factory, family, serial_options);
  EXPECT_TRUE(baseline.log.any());
  EXPECT_EQ(baseline.spec_runs, 3u);
  EXPECT_EQ(baseline.specs_skipped, 2u);
  ASSERT_FALSE(baseline.log.determinacy_races().empty());
  EXPECT_EQ(baseline.log.determinacy_races()[0].found_under,
            family[2]->describe());

  // Parallel sweeps must be byte-identical: same reported race set (specs 3
  // and 4 also race, but any wall-clock-first result from them is
  // discarded), same spec_runs, same specs_skipped.  Repeat each thread
  // count a few times to give racy interleavings a chance to disagree.
  for (const unsigned threads : {2u, 4u, 8u}) {
    for (int repeat = 0; repeat < 5; ++repeat) {
      SweepOptions options;
      options.threads = threads;
      options.stop_after_first_race = true;
      const SweepResult result = sweep_family(factory, family, options);
      EXPECT_EQ(result.spec_runs, baseline.spec_runs)
          << threads << " thread(s), repeat " << repeat;
      EXPECT_EQ(result.specs_skipped, baseline.specs_skipped)
          << threads << " thread(s), repeat " << repeat;
      EXPECT_EQ(result.log.to_json(), baseline.log.to_json())
          << threads << " thread(s), repeat " << repeat;
    }
  }
}

TEST(SweepDedup, ReplayHandleReproducesTheStopFirstRaceSet) {
  // The stop-first result's races carry found_under handles; feeding one
  // back through spec::from_description and a single SP+ run must reproduce
  // the identical deduplicated race set (the paper's "easy to repeat the
  // run for regression tests" workflow).
  const auto family = staggered_family();
  SweepOptions options;
  options.threads = 4;
  options.stop_after_first_race = true;
  const SweepResult result = sweep_family(
      shared_program([] { steal_dependent_racy(); }), family, options);
  ASSERT_TRUE(result.log.any());
  const std::string handle =
      result.log.determinacy_races()[0].found_under;
  ASSERT_FALSE(handle.empty());

  const auto replay_spec = spec::from_description(handle);
  ASSERT_NE(replay_spec, nullptr) << handle;
  const RaceLog replayed = Rader::check_determinacy(
      [] { steal_dependent_racy(); }, *replay_spec);
  // The stop-first log is exactly the first racy spec's log (the clean
  // prefix contributes nothing), so the replay matches byte-for-byte.
  EXPECT_EQ(replayed.to_json(), result.log.to_json());
}

TEST(SweepDedup, CleanProgramSweepsWholeFamilyQuietly) {
  const auto family = three_specs();
  const SweepResult result = sweep_family(
      shared_program([] { clean_disjoint(); }), family, SweepOptions{});
  EXPECT_FALSE(result.log.any());
  EXPECT_EQ(result.spec_runs, family.size());
  EXPECT_EQ(result.specs_skipped, 0u);
}

TEST(SweepDedup, ParallelExhaustiveMatchesSerialExhaustive) {
  const auto serial = testing::serial_exhaustive([] { racy_two_reads(); });
  for (const unsigned threads : {1u, 4u}) {
    SweepOptions options;
    options.threads = threads;
    const auto parallel = Rader::check_exhaustive(
        shared_program([] { racy_two_reads(); }), options);
    EXPECT_EQ(parallel.k, serial.k);
    EXPECT_EQ(parallel.depth, serial.depth);
    EXPECT_EQ(parallel.spec_runs, serial.spec_runs);
    EXPECT_EQ(parallel.specs_skipped, 0u);
    EXPECT_EQ(parallel.log.to_json(), serial.log.to_json())
        << threads << " thread(s)";
  }
}

}  // namespace
}  // namespace rader
