// Golden shadow battery: the production shadow against the frozen output
// of the original paired-map shadow.
//
// shadow::AccessShadow (shadow/access_shadow.hpp) replaced a pair of
// uint32 page maps (reader + writer) with one packed 64-bit slot per
// granule.  That change promised to alter only the storage cost, never
// the answer: for address-stable programs the merged sweep report is
// byte-identical at every thread count — same race identity sets, same
// occurrence totals, same eliciting-spec sets, same spec accounting.
//
// Before the paired maps were deleted, their output on this battery's
// corpus was frozen in tests/shadow/golden/shadow_sweep.golden: per seed,
// spec_runs, specs_skipped, any_race and a digest of the address-
// normalized RaceLog::to_json() (shadow_golden.hpp).  The battery sweeps
// RADER_SHADOW_EQ_PROGRAMS seeded programs (default: the compile-time
// RADER_SHADOW_EQ_DEFAULT; the fast gate builds this file with 50, the
// stress target with 300) through the full Section-7 family at jobs 1
// and 4 and compares every run with its golden row.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/driver.hpp"
#include "core/sweep.hpp"
#include "shadow_golden.hpp"

#ifndef RADER_SHADOW_EQ_DEFAULT
#define RADER_SHADOW_EQ_DEFAULT 300
#endif

namespace rader {
namespace {

using golden::GoldenRow;

int program_count() {
  if (const char* env = std::getenv("RADER_SHADOW_EQ_PROGRAMS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return RADER_SHADOW_EQ_DEFAULT;
}

/// The golden rows of one kind ("sweep" or "driver"), in file order.
std::vector<GoldenRow> golden_rows(const std::string& kind) {
  return golden::read_rows(RADER_SHADOW_GOLDEN, kind);
}

/// A run's row and the normalized log it digests (printed on mismatch).
struct Measured {
  GoldenRow row;
  std::string normalized;
};

Measured measure(const GoldenRow& want, const RaceLog& log,
                 std::uint64_t spec_runs, std::uint64_t specs_skipped) {
  Measured m;
  m.normalized = golden::normalize_addresses(log.to_json());
  m.row = GoldenRow{want.kind,     want.seed, spec_runs,
                    specs_skipped, log.any(), golden::log_digest(m.normalized)};
  return m;
}

/// Fails loudly when the corpus asks for more seeds than were frozen.
void require_golden_seeds(const std::vector<GoldenRow>& rows, int wanted,
                          const char* kind) {
  ASSERT_LE(static_cast<std::size_t>(wanted), rows.size())
      << wanted << " " << kind << " seeds requested, but "
      << RADER_SHADOW_GOLDEN << " holds only " << rows.size()
      << ": lower RADER_SHADOW_EQ_PROGRAMS; the paired-map shadow that "
         "produced the file no longer exists to extend it";
  for (int i = 0; i < wanted; ++i) {
    ASSERT_EQ(rows[i].seed, static_cast<std::uint64_t>(i + 1))
        << kind << " rows must list seeds 1.. in order";
  }
}

// ---- Golden battery --------------------------------------------------------

TEST(ShadowEncodingEquivalence, PackedByteIdenticalToLegacyAtEveryJobCount) {
  const int kPrograms = program_count();
  const std::vector<GoldenRow> rows = golden_rows("sweep");
  require_golden_seeds(rows, kPrograms, "sweep");
  if (::testing::Test::HasFatalFailure()) return;
  int racy = 0;
  for (int seed = 1; seed <= kPrograms; ++seed) {
    const GoldenRow& want = rows[seed - 1];
    const golden::SeededProgram program{want.seed};
    const auto family = golden::family_for(program);
    for (const unsigned threads : {1u, 4u}) {
      SweepOptions options;
      options.threads = threads;
      const SweepResult result = sweep_family(
          shared_program([program] { program(); }), family, options);
      const Measured got = measure(want, result.log, result.spec_runs,
                                   result.specs_skipped);
      ASSERT_EQ(golden::format_row(got.row), golden::format_row(want))
          << threads << " thread(s); normalized log:\n"
          << got.normalized;
      if (threads == 1) racy += got.row.any_race;
    }
  }
  // Matching empty logs proves nothing: the corpus must elicit races.
  EXPECT_GE(racy, kPrograms / 2);
}

TEST(ShadowEncodingEquivalence, ExhaustiveCheckAgreesUnderBothEncodings) {
  // The single-program Section-7 driver path (Peer-Set probe + SP+ family,
  // serial), against the legacy encoding's frozen driver rows: detector
  // construction happens inside the driver.
  const int kPrograms = std::max(5, program_count() / 10);
  const std::vector<GoldenRow> rows = golden_rows("driver");
  require_golden_seeds(rows, kPrograms, "driver");
  if (::testing::Test::HasFatalFailure()) return;
  for (int seed = 1; seed <= kPrograms; ++seed) {
    const GoldenRow& want = rows[seed - 1];
    const golden::SeededProgram program{want.seed};
    const auto r = Rader::check_exhaustive(shared_program(program));
    const Measured got = measure(want, r.log, r.spec_runs, r.specs_skipped);
    ASSERT_EQ(golden::format_row(got.row), golden::format_row(want))
        << "normalized log:\n"
        << got.normalized;
  }
}

}  // namespace
}  // namespace rader
