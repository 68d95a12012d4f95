// End-to-end: every paper benchmark is ostensibly deterministic and
// race-free — under Peer-Set, under SP+ on the serial schedule, and under
// the exhaustive Section-7 specification family (at reduced scale and caps
// so the whole matrix fits in a test).
#include <gtest/gtest.h>

#include "apps/workloads.hpp"
#include "core/driver.hpp"

namespace rader::apps {
namespace {

class BenchmarkRaceCheck
    : public ::testing::TestWithParam<const char*> {};

TEST_P(BenchmarkRaceCheck, ExhaustivelyRaceFreeAtSmallScale) {
  Workload w = make_benchmark(GetParam(), /*scale=*/0.002);
  const auto result = Rader::check_exhaustive(shared_program([&] { w.run(); }),
                                              {}, /*k_cap=*/4,
                                              /*depth_cap=*/6);
  EXPECT_FALSE(result.log.any())
      << w.name << " under " << result.spec_runs
      << " specs:\n" << result.log.to_string();
  EXPECT_TRUE(w.verify()) << w.name;
  EXPECT_GE(result.spec_runs, 2u);  // tiny scales can have K<2
}

INSTANTIATE_TEST_SUITE_P(Paper, BenchmarkRaceCheck,
                         ::testing::Values("collision", "dedup", "ferret",
                                           "fib", "knapsack", "pbfs"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace rader::apps
