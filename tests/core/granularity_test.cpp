// Shadow-granularity ablation semantics: granule_bits = 0 is byte-exact;
// granule_bits = 3 (word cells) keeps true races, costs ~8x fewer shadow
// operations, and may conflate adjacent objects sharing a word (the
// ThreadSanitizer-style tradeoff).
#include <gtest/gtest.h>

#include "core/spbags.hpp"
#include "core/spplus.hpp"
#include "runtime/api.hpp"
#include "runtime/run.hpp"
#include "spec/steal_spec.hpp"

namespace rader {
namespace {

RaceLog check_spplus(FnView program, unsigned granule_bits) {
  RaceLog log;
  SpPlusDetector detector(&log, granule_bits);
  spec::NoSteal none;
  run_serial(program, &detector, &none);
  return log;
}

TEST(Granularity, WordCellsStillCatchTrueRaces) {
  alignas(8) long x = 0;
  for (const unsigned bits : {0u, 3u}) {
    const RaceLog log = check_spplus(
        [&] {
          spawn([&] { shadow_write(&x, 8); });
          shadow_read(&x, 8);
          sync();
        },
        bits);
    EXPECT_TRUE(log.any()) << "granule_bits=" << bits;
  }
}

TEST(Granularity, WordCellsCoalesceAnEightByteAccess) {
  alignas(8) long x = 0;
  const RaceLog exact = check_spplus(
      [&] {
        spawn([&] { shadow_write(&x, 8); });
        shadow_write(&x, 8);
        sync();
      },
      0);
  const RaceLog coarse = check_spplus(
      [&] {
        spawn([&] { shadow_write(&x, 8); });
        shadow_write(&x, 8);
        sync();
      },
      3);
  EXPECT_EQ(exact.determinacy_count(), 8u);   // one occurrence per byte
  EXPECT_EQ(coarse.determinacy_count(), 1u);  // one occurrence per word
  EXPECT_TRUE(exact.any() && coarse.any());
}

TEST(Granularity, ByteExactSeparatesAdjacentBytes) {
  alignas(8) char buf[8] = {};
  const RaceLog log = check_spplus(
      [&] {
        spawn([&] { shadow_write(&buf[0], 1); });
        shadow_write(&buf[1], 1);  // disjoint byte, same word
        sync();
      },
      0);
  EXPECT_FALSE(log.any());
}

TEST(Granularity, WordCellsConflateAdjacentBytes) {
  // The documented imprecision of coarse mode: two disjoint bytes in one
  // word share a shadow cell and are reported as racing.
  alignas(8) char buf[8] = {};
  const RaceLog log = check_spplus(
      [&] {
        spawn([&] { shadow_write(&buf[0], 1); });
        shadow_write(&buf[1], 1);
        sync();
      },
      3);
  EXPECT_TRUE(log.any());
}

TEST(Granularity, UnalignedAccessCoversBothWords) {
  alignas(8) char buf[16] = {};
  // A 4-byte access straddling a word boundary must conflict with accesses
  // to either word under coarse granularity.
  const RaceLog log = check_spplus(
      [&] {
        spawn([&] { shadow_write(&buf[6], 4); });  // words 0 and 1
        shadow_read(&buf[8], 1);                   // word 1
        sync();
      },
      3);
  EXPECT_TRUE(log.any());
}

TEST(Granularity, ClearRespectsGranules) {
  const RaceLog log = check_spplus(
      [&] {
        auto* p = new long(0);
        spawn([p] { shadow_write(p, 8); });
        sync();
        shadow_clear(p, 8);
        delete p;
        auto* q = new long(0);  // may reuse p's address
        shadow_read(q, 8);      // must not see p's stale writer
        sync();
        delete q;
      },
      3);
  EXPECT_FALSE(log.any());
}

TEST(Granularity, DistinctRacesInOneGranuleKeepDistinctReports) {
  // Two different bytes of one word each race with a word-wide writer,
  // under the SAME label.  Coarse mode must report each at its true byte
  // address (clamped to the access extent), not at the granule base —
  // otherwise the two collapse into one frame-free dedup identity.
  alignas(8) char buf[8] = {};
  const RaceLog log = check_spplus(
      [&] {
        spawn([&] { shadow_write(&buf[0], 8, SrcTag{"word writer"}); });
        shadow_read(&buf[1], 1, SrcTag{"byte read"});
        shadow_read(&buf[5], 1, SrcTag{"byte read"});
        sync();
      },
      3);
  EXPECT_EQ(log.determinacy_count(), 2u);
  ASSERT_EQ(log.determinacy_races().size(), 2u);
  EXPECT_EQ(log.determinacy_races()[0].addr,
            reinterpret_cast<std::uintptr_t>(&buf[1]));
  EXPECT_EQ(log.determinacy_races()[1].addr,
            reinterpret_cast<std::uintptr_t>(&buf[5]));
}

TEST(Granularity, DistinctReportsSurviveThePackedSlot) {
  // The packed slot stores the access extent in a 4-bit field; the report
  // address must come from the CURRENT access, never from that (possibly
  // clamped) stored extent.
  alignas(8) char buf[8] = {};
  const RaceLog log = check_spplus(
      [&] {
        spawn([&] { shadow_write(&buf[0], 8, SrcTag{"word writer"}); });
        shadow_read(&buf[1], 1, SrcTag{"byte read"});
        shadow_read(&buf[5], 1, SrcTag{"byte read"});
        sync();
      },
      3);
  ASSERT_EQ(log.determinacy_races().size(), 2u);
  EXPECT_EQ(log.determinacy_races()[0].addr,
            reinterpret_cast<std::uintptr_t>(&buf[1]));
  EXPECT_EQ(log.determinacy_races()[1].addr,
            reinterpret_cast<std::uintptr_t>(&buf[5]));
}

TEST(Granularity, OffsetsBeyondThePackedExtentFieldKeepTrueAddresses) {
  // granule_bits = 5: a 32-byte granule, so byte offsets run to 31 — past
  // the packed slot's 4-bit extent field, which saturates at 15.  The
  // saturation must stay diagnostic: a race at offset 29 still reports the
  // true byte address, not an address clamped to the extent field's reach.
  alignas(32) char buf[32] = {};
  const RaceLog log = check_spplus(
      [&] {
        spawn([&] { shadow_write(&buf[0], 32, SrcTag{"granule writer"}); });
        shadow_read(&buf[1], 1, SrcTag{"byte read"});
        shadow_read(&buf[29], 1, SrcTag{"byte read"});
        sync();
      },
      5);
  ASSERT_EQ(log.determinacy_races().size(), 2u);
  EXPECT_EQ(log.determinacy_races()[0].addr,
            reinterpret_cast<std::uintptr_t>(&buf[1]));
  EXPECT_EQ(log.determinacy_races()[1].addr,
            reinterpret_cast<std::uintptr_t>(&buf[29]));
}

TEST(Granularity, AccessAtTopOfAddressSpaceDoesNotWrap) {
  // An 8-byte access whose extent would overflow uintptr_t (regression: the
  // pre-clamp range loop computed last < first and silently tracked
  // nothing, so the race vanished).  Annotation-only accesses, so the bogus
  // address is never dereferenced.
  void* const top = reinterpret_cast<void*>(~std::uintptr_t{0} - 2);
  const auto program = [&] {
    spawn([&] { shadow_write(top, 8); });
    shadow_read(top, 8);
    sync();
  };
  for (const unsigned bits : {0u, 3u}) {
    const RaceLog log = check_spplus(program, bits);
    EXPECT_TRUE(log.any()) << "sp+ granule_bits=" << bits;
  }
  {
    RaceLog log;
    SpBagsDetector detector(&log);
    spec::NoSteal none;
    run_serial(program, &detector, &none);
    EXPECT_TRUE(log.any()) << "spbags";
  }
}

TEST(Granularity, SpBagsSupportsCoarseModeToo) {
  int x = 0;
  RaceLog log;
  SpBagsDetector detector(&log, 3);
  spec::NoSteal none;
  run_serial(
      [&] {
        spawn([&] { shadow_write(&x, 4); });
        shadow_read(&x, 4);
        sync();
      },
      &detector, &none);
  EXPECT_EQ(log.determinacy_count(), 1u);
}

}  // namespace
}  // namespace rader
