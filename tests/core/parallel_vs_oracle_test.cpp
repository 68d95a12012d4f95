// The parallel on-the-fly check against the serial oracle: the view-read
// races Rader::check_parallel reports while the program really runs on the
// work-stealing engine must be exactly the ones the brute-force oracle
// finds on a serial recording of the same random program — per reducer, at
// several worker counts.  parallel_equivalence_test compares the parallel
// log with the serial Peer-Set log; this test anchors both to the oracle.
//
// Not in the sched label: random programs contain deliberate data races
// (raw-view pokes, unsynchronized locations) that are the detector's
// subject matter, not bugs in the engine.
#include <gtest/gtest.h>

#include <set>

#include "core/driver.hpp"
#include "dag/oracle.hpp"
#include "dag/random_program.hpp"
#include "dag/recorder.hpp"
#include "runtime/serial_engine.hpp"
#include "spec/steal_spec.hpp"

namespace rader {
namespace {

dag::RandomProgramParams params_for(std::uint64_t seed) {
  dag::RandomProgramParams params;
  params.seed = seed;
  params.max_depth = 4;
  params.max_actions = 8;
  params.num_reducers = 2;
  params.num_locations = 6;
  params.p_access = 0.25;
  params.p_update = 0.15;
  params.p_raw_view = 0.05;
  params.p_reducer_read = 0.10;
  return params;
}

dag::OracleResult serial_oracle(dag::RandomProgram& program) {
  dag::Recorder recorder;
  spec::NoSteal none;
  SerialEngine engine(&recorder, &none);
  engine.run([&] { program(); });
  return dag::run_view_read_oracle(recorder.dag());
}

std::set<ReducerId> flagged_reducers(const RaceLog& log) {
  std::set<ReducerId> out;
  for (const ViewReadRace& race : log.view_read_races()) {
    out.insert(race.reducer);
  }
  return out;
}

class ParallelOracleProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ParallelOracleProperty, AgreesWithSerialOracle) {
  const std::uint64_t seed = GetParam();
  dag::RandomProgram program(params_for(seed));
  const dag::OracleResult oracle = serial_oracle(program);
  const std::set<ReducerId> expected(oracle.racing_reducers.begin(),
                                     oracle.racing_reducers.end());
  for (const unsigned jobs : {1u, 3u}) {
    const RaceLog par = Rader::check_parallel([&] { program(); }, jobs);
    EXPECT_EQ(par.view_read_count() > 0, oracle.any_view_read)
        << "seed " << seed << " jobs=" << jobs;
    EXPECT_EQ(flagged_reducers(par), expected)
        << "seed " << seed << " jobs=" << jobs;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelOracleProperty,
                         ::testing::Range<std::uint64_t>(5000, 5040));

TEST(ParallelOracle, EmptyDagIsClean) {
  dag::Recorder recorder;
  spec::NoSteal none;
  SerialEngine engine(&recorder, &none);
  engine.run([] {});
  const dag::OracleResult oracle = dag::run_oracle(recorder.dag());
  EXPECT_FALSE(oracle.any_view_read);
  EXPECT_FALSE(oracle.any_determinacy);
  const RaceLog par = Rader::check_parallel([] {}, 2);
  EXPECT_FALSE(par.any());
}

}  // namespace
}  // namespace rader
