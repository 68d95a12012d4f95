// Property test: the SP-bags detector against the brute-force DAG oracle,
// on random no-steal (series-parallel) programs.
//
// SP-bags is the reducer-oblivious baseline: on view-oblivious access
// streams its verdicts must match the reachability ground truth.
#include <gtest/gtest.h>

#include "core/spbags.hpp"
#include "dag/oracle.hpp"
#include "dag/random_program.hpp"
#include "dag/recorder.hpp"
#include "runtime/serial_engine.hpp"
#include "spec/steal_spec.hpp"

namespace rader {
namespace {

class SpBagsVsOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SpBagsVsOracle, MatchesOracle) {
  dag::RandomProgramParams params;
  params.seed = GetParam();
  params.max_depth = 4;
  params.max_actions = 8;
  params.num_reducers = 1;
  params.num_locations = 5;
  // Plain accesses only — SP-bags is reducer-oblivious by design.  The
  // probabilities sum to 1 so no leftover mass falls through to updates.
  params.p_spawn = 0.25;
  params.p_call = 0.10;
  params.p_sync = 0.15;
  params.p_access = 0.50;
  params.p_update = 0.0;
  params.p_raw_view = 0.0;
  params.p_reducer_read = 0.0;
  dag::RandomProgram program(params);

  spec::NoSteal none;
  RaceLog log;
  dag::Recorder recorder;
  SpBagsDetector detector(&log);
  ToolChain chain;
  chain.add(&detector);
  chain.add(&recorder);
  SerialEngine engine(&chain, &none);
  engine.run([&] { program(); });
  const dag::OracleResult oracle = dag::run_oracle(recorder.dag());

  // Soundness per address, against ground truth.
  for (const auto& race : log.determinacy_races()) {
    EXPECT_TRUE(oracle.racing_addrs.count(race.addr) > 0)
        << "seed " << GetParam() << ": SP-bags false positive";
  }
  // Completeness per execution.
  EXPECT_EQ(log.determinacy_count() > 0, oracle.any_determinacy)
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpBagsVsOracle,
                         ::testing::Range<std::uint64_t>(3000, 3120));

}  // namespace
}  // namespace rader
