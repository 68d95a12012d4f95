// Golden SP-bags battery: SP-bags against the frozen output it shared with
// the SP-order detector.
//
// SP-order (Bender, Fineman, Gilbert & Leiserson, SPAA'04) was a second
// reducer-oblivious baseline: it decided the same series-parallel relation
// as SP-bags with two order-maintenance orders instead of disjoint-set
// bags.  Before it was deleted, both detectors ran chained on one execution
// (ToolChain) of every (program, spec) pair below, and their
// RaceLog::to_json() was byte-identical on every pair.
// tests/core/golden/spbags_family.golden records that shared output: per
// seed, the family size, whether any member's log was racy, and a digest of
// the members' address-normalized logs in family order.
//
// The corpus, normalizer and codec are the shadow battery's
// (tests/shadow/shadow_golden.hpp): each seeded program runs under every
// member of its Section-7 family plus the no-steal and steal-all endpoints.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../shadow/shadow_golden.hpp"
#include "core/spbags.hpp"

namespace rader {
namespace {

using golden::GoldenRow;

TEST(SpBagsGolden, EveryFamilyMemberMatchesTheFrozenLogs) {
  const std::vector<GoldenRow> rows =
      golden::read_rows(RADER_SPBAGS_GOLDEN, "spbags");
  ASSERT_EQ(rows.size(), 300u);
  int racy = 0;
  for (const GoldenRow& want : rows) {
    const golden::SeededProgram program{want.seed};
    const auto family = golden::family_for(program);
    GoldenRow got{"spbags", want.seed, family.size(), 0, false, 0};
    std::string logs;
    for (const auto& steal_spec : family) {
      RaceLog log;
      SpBagsDetector detector(&log);
      SerialEngine engine(&detector, steal_spec.get());
      engine.run([&] { program(); });
      got.any_race = got.any_race || log.any();
      logs += golden::normalize_addresses(log.to_json());
      logs += '\n';
    }
    got.digest = golden::log_digest(logs);
    ASSERT_EQ(golden::format_row(got), golden::format_row(want))
        << "normalized logs, one per family member:\n"
        << logs;
    racy += got.any_race;
  }
  // Matching empty logs proves nothing: the corpus must elicit races.
  EXPECT_GE(racy, 150);
}

}  // namespace
}  // namespace rader
