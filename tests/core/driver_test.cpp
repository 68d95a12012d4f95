#include "core/driver.hpp"

#include <gtest/gtest.h>

#include "reducers/monoid.hpp"
#include "reducers/reducer.hpp"
#include "runtime/api.hpp"

namespace rader {
namespace {

TEST(Driver, CleanProgramCleanEverywhere) {
  const auto clean = [] {
    reducer<monoid::op_add<long>> sum;
    for (int i = 0; i < 4; ++i) {
      spawn([&sum] { sum += 1; });
    }
    sync();
    volatile long v = sum.get_value();
    (void)v;
  };
  const auto result = Rader::check_exhaustive(shared_program(clean));
  EXPECT_FALSE(result.log.any());
  EXPECT_GT(result.spec_runs, 1u);
  EXPECT_EQ(result.k, 4u);
}

TEST(Driver, ExhaustiveUsesProbeStatsForFamilySize) {
  const auto program = [] {
    for (int i = 0; i < 5; ++i) spawn([] {});
    sync();
  };
  const auto result = Rader::check_exhaustive(shared_program(program), {},
                                              /*k_cap=*/3, /*depth_cap=*/2);
  EXPECT_EQ(result.probe_stats.max_sync_block, 5u);
  EXPECT_EQ(result.k, 3u);      // capped
  // Five unsynced spawns in one block reach depth 5; capped at 2.
  EXPECT_EQ(result.depth, 2u);
  // runs = 1 (no-steal) + (depth+1) + C(3,2)+C(3,3).
  EXPECT_EQ(result.spec_runs, 1u + 3u + 3u + 1u);
}

TEST(Driver, CheckWithFamilyMergesLogs) {
  int x = 0;
  const auto racy = [&] {
    spawn([&] { shadow_write(&x, 4); });
    shadow_read(&x, 4);
    sync();
  };
  std::vector<std::unique_ptr<spec::StealSpec>> family;
  family.push_back(std::make_unique<spec::NoSteal>());
  family.push_back(std::make_unique<spec::StealAll>());
  const RaceLog log = sweep_family(shared_program(racy), family).log;
  // Found in both runs; occurrence counts accumulate, locations dedup.
  EXPECT_EQ(log.determinacy_count(), 8u);
  EXPECT_EQ(log.determinacy_races().size(), 4u);
}

TEST(Driver, ViewReadAndDeterminacyAreOrthogonal) {
  // A program with only a view-read race: Peer-Set flags it, SP+ does not.
  const auto vr_only = [] {
    reducer<monoid::op_add<long>> sum;
    spawn([&sum] { sum += 1; });
    volatile long v = sum.get_value();
    (void)v;
    sync();
  };
  EXPECT_TRUE(Rader::check_view_read(vr_only).any());
  spec::NoSteal none;
  const RaceLog sp = Rader::check_determinacy(vr_only, none);
  EXPECT_EQ(sp.determinacy_count(), 0u);
}

TEST(Driver, ReportsCarryReplaySpec) {
  // The paper's replay feature: reports name the specification that
  // elicited them, "making it easy to repeat the run for regression tests."
  int x = 0;
  const auto racy = [&] {
    spawn([&] { shadow_write(&x, 4); });
    shadow_read(&x, 4);
    sync();
  };
  spec::TripleSteal triple(0, 1, 2);
  const RaceLog log = Rader::check_determinacy(racy, triple);
  ASSERT_FALSE(log.determinacy_races().empty());
  EXPECT_EQ(log.determinacy_races()[0].found_under, "steal-triple(0,1,2)");
  EXPECT_NE(log.to_string().find("[replay: steal-triple(0,1,2)]"),
            std::string::npos);
  EXPECT_NE(log.to_json().find("\"found_under\":\"steal-triple(0,1,2)\""),
            std::string::npos);
}

TEST(Driver, RaceLogToStringMentionsEverything) {
  int x = 0;
  const auto racy = [&] {
    reducer<monoid::op_add<long>> sum;
    spawn([&] {
      shadow_write(&x, 4, SrcTag{"writer"});
      sum += 1;
    });
    shadow_read(&x, 4, SrcTag{"reader"});
    volatile long v = sum.get_value(SrcTag{"early get"});
    (void)v;
    sync();
  };
  const auto result = Rader::check_exhaustive(shared_program(racy));
  const std::string text = result.log.to_string();
  EXPECT_NE(text.find("view-read race"), std::string::npos);
  EXPECT_NE(text.find("determinacy race"), std::string::npos);
  EXPECT_NE(text.find("early get"), std::string::npos);
  EXPECT_NE(text.find("reader"), std::string::npos);
}

}  // namespace
}  // namespace rader
