// Litmus runner: every corpus case is checked against its hand-derived
// verdicts under Peer-Set, SP+ on the serial schedule, and SP+ under the
// exhaustive Section-7 family — and the detectors' mutual containments are
// asserted (family findings ⊇ serial findings; verdicts deterministic on
// repetition).
#include <gtest/gtest.h>

#include "core/driver.hpp"
#include "litmus_cases.hpp"

namespace rader::litmus {
namespace {

class Litmus : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Litmus, VerdictsMatchHandDerivation) {
  const Case c = all_cases()[GetParam()];
  SCOPED_TRACE(c.name + " — " + c.why);

  const RaceLog peerset = Rader::check_view_read([&] { c.program(); });
  EXPECT_EQ(peerset.view_read_count() > 0, c.peerset) << "Peer-Set verdict";

  spec::NoSteal none;
  const RaceLog serial = Rader::check_determinacy([&] { c.program(); }, none);
  EXPECT_EQ(serial.determinacy_count() > 0, c.sp_serial)
      << "SP+ serial-schedule verdict";

  const auto family = Rader::check_exhaustive(shared_program(c.program), {},
                                              /*k_cap=*/8, /*depth_cap=*/16);
  EXPECT_EQ(family.log.determinacy_count() > 0, c.sp_family)
      << "SP+ exhaustive-family verdict";

  // Structural sanity: whatever the serial schedule exposes, the family
  // (which includes the no-steal spec) must also expose.
  if (c.sp_serial) EXPECT_TRUE(family.log.determinacy_count() > 0);
  // And the family's Peer-Set probe agrees with the direct Peer-Set run.
  EXPECT_EQ(family.log.view_read_count() > 0, c.peerset);
}

TEST_P(Litmus, VerdictsAreStableAcrossRepetition) {
  const Case c = all_cases()[GetParam()];
  SCOPED_TRACE(c.name);
  spec::RandomTripleSteal steal_spec(11, 8);
  const auto first =
      Rader::check_determinacy([&] { c.program(); }, steal_spec)
          .determinacy_count() > 0;
  for (int rep = 0; rep < 2; ++rep) {
    EXPECT_EQ(Rader::check_determinacy([&] { c.program(); }, steal_spec)
                      .determinacy_count() > 0,
              first)
        << "rep " << rep;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, Litmus, ::testing::Range<std::size_t>(0, all_cases().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      std::string name = all_cases()[info.param].name;
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

TEST(LitmusCorpus, CoversBothRaceKindsAndBothGapDirections) {
  int viewread = 0, serial_races = 0, family_only = 0, clean = 0;
  for (const Case& c : all_cases()) {
    viewread += c.peerset;
    serial_races += c.sp_serial;
    family_only += (!c.sp_serial && c.sp_family);
    clean += (!c.peerset && !c.sp_serial && !c.sp_family);
  }
  EXPECT_GE(viewread, 8);      // view-read races represented
  EXPECT_GE(serial_races, 4);  // serial-visible determinacy races
  EXPECT_GE(family_only, 3);   // the paper's raison d'être: steal-only bugs
  EXPECT_GE(clean, 10);        // and clean programs to guard precision
}

}  // namespace
}  // namespace rader::litmus
