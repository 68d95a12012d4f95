// PackedShadow unit coverage: the compressed slot encoding, the epoch-
// tagged bulk clear (including rollover), lookaside-cache staleness, the
// two-level CoW fork economics — the corners the golden shadow battery
// exercises only statistically — and a primitive-level oracle: every
// operation, forks included, against a plain map per space.
#include "shadow/packed_shadow.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "shadow/access_shadow.hpp"
#include "support/rng.hpp"

namespace rader::shadow {
namespace {

constexpr std::uintptr_t kTop = ~std::uintptr_t{0};

TEST(PackedShadow, UnsetGranulesAreEmpty) {
  PackedShadow s;
  EXPECT_EQ(s.reader(0), PackedShadow::kEmpty);
  EXPECT_EQ(s.writer(0xdeadbeef), PackedShadow::kEmpty);
  EXPECT_EQ(s.page_count(), 0u);  // reads never allocate
}

// The shadow-space paging contract (page mapping and byte accounting), held
// by the one shadow the detectors use.
TEST(ShadowSpace, CrossesPageBoundaries) {
  PackedShadow s;
  const std::uintptr_t boundary = PackedShadow::kPageSlots * 10;
  s.set_writer(boundary - 1, 1);
  s.set_writer(boundary, 2);
  EXPECT_EQ(s.writer(boundary - 1), 1u);
  EXPECT_EQ(s.writer(boundary), 2u);
  EXPECT_EQ(s.page_count(), 2u);
}

TEST(ShadowSpace, BytesAccountsPages) {
  PackedShadow s;
  EXPECT_EQ(s.bytes(), 0u);
  s.set_writer(0, 1);
  EXPECT_GE(s.bytes(), PackedShadow::kPageSlots * sizeof(std::uint64_t));
  s.set_writer(PackedShadow::kPageSlots, 2);
  EXPECT_GE(s.bytes(), 2 * PackedShadow::kPageSlots * sizeof(std::uint64_t))
      << "bytes() accounts every mapped page";
}

TEST(PackedShadow, ReaderAndWriterShareOneSlotIndependently) {
  PackedShadow s;
  s.set_reader(0x1000, 7, 3);
  EXPECT_EQ(s.reader(0x1000), 7u);
  EXPECT_EQ(s.writer(0x1000), PackedShadow::kEmpty);
  s.set_writer(0x1000, 9, 5);
  EXPECT_EQ(s.reader(0x1000), 7u);
  EXPECT_EQ(s.writer(0x1000), 9u);
  EXPECT_EQ(s.reader_offset(0x1000), 3u);
  EXPECT_EQ(s.writer_offset(0x1000), 5u);
  // Overwriting one field must not disturb the other field or offset.
  s.set_reader(0x1000, 11, 1);
  EXPECT_EQ(s.writer(0x1000), 9u);
  EXPECT_EQ(s.writer_offset(0x1000), 5u);
  EXPECT_EQ(s.reader_offset(0x1000), 1u);
}

TEST(PackedShadow, OffsetsClampToTheFourBitExtentField) {
  PackedShadow s;
  s.set_writer(0x2000, 1, 200);
  EXPECT_EQ(s.writer_offset(0x2000), PackedShadow::kMaxOffset);
}

TEST(PackedShadow, MaxPayloadRoundTripsAndKEmptyClearsAField) {
  PackedShadow s;
  s.set_writer(0x3000, PackedShadow::kMaxPayload);
  EXPECT_EQ(s.writer(0x3000), PackedShadow::kMaxPayload);
  s.set_writer(0x3000, PackedShadow::kEmpty);
  EXPECT_EQ(s.writer(0x3000), PackedShadow::kEmpty);
}

TEST(PackedShadow, ClearGranuleEmptiesBothFieldsWithoutMaterializing) {
  PackedShadow s;
  s.clear_granule(0x4000);  // absent: must not allocate a page
  EXPECT_EQ(s.page_count(), 0u);
  s.set_reader(0x4000, 1);
  s.set_writer(0x4000, 2);
  s.clear_granule(0x4000);
  EXPECT_EQ(s.reader(0x4000), PackedShadow::kEmpty);
  EXPECT_EQ(s.writer(0x4000), PackedShadow::kEmpty);
}

// ---- Epoch clear -----------------------------------------------------------

TEST(PackedShadow, EpochClearEmptiesEverythingWithoutTouchingPages) {
  PackedShadow s;
  for (std::uintptr_t g = 0; g < 3 * PackedShadow::kPageSlots; g += 97) {
    s.set_writer(g, 5);
  }
  const std::size_t pages = s.page_count();
  const std::uint64_t epoch = s.epoch();
  s.clear();
  EXPECT_EQ(s.epoch(), epoch + 1);
  EXPECT_EQ(s.page_count(), pages);  // stale pages stay mapped (lazy reset)
  for (std::uintptr_t g = 0; g < 3 * PackedShadow::kPageSlots; g += 97) {
    EXPECT_EQ(s.writer(g), PackedShadow::kEmpty) << "granule " << g;
  }
}

TEST(PackedShadow, WritesAfterClearReStampWithoutResurrectingOldData) {
  PackedShadow s;
  s.set_writer(0x5000, 1);
  s.set_writer(0x5001, 2);
  s.clear();
  s.set_writer(0x5000, 3);  // same page: lazy reset + re-stamp
  EXPECT_EQ(s.writer(0x5000), 3u);
  EXPECT_EQ(s.writer(0x5001), PackedShadow::kEmpty)
      << "the lazy page reset must wipe the whole page, not just the "
         "written granule";
}

TEST(PackedShadow, ClearAfterWritesAdjacentToUintptrMax) {
  // Regression: granules at the very top of the address space exercise the
  // highest page/chunk keys; clear() (epoch bump) and the subsequent lazy
  // resets must behave identically there.
  PackedShadow s;
  s.set_writer(kTop, 1, 15);
  s.set_writer(kTop - 1, 2);
  s.set_reader(kTop - PackedShadow::kPageSlots, 3);  // previous page
  EXPECT_EQ(s.writer(kTop), 1u);
  s.clear();
  EXPECT_EQ(s.writer(kTop), PackedShadow::kEmpty);
  EXPECT_EQ(s.writer(kTop - 1), PackedShadow::kEmpty);
  EXPECT_EQ(s.reader(kTop - PackedShadow::kPageSlots), PackedShadow::kEmpty);
  s.set_writer(kTop, 9);
  EXPECT_EQ(s.writer(kTop), 9u);
  EXPECT_EQ(s.writer(kTop - 1), PackedShadow::kEmpty);
}

TEST(PackedShadow, LookasideCachesGoStaleAcrossEpochRollover) {
  // Regression: the read lookaside may hold a page pointer across clear();
  // every hit must revalidate the page's epoch stamp — including across
  // the rollover path, where the directory is rebuilt and the epoch
  // RESTARTS at 1 (a stale cache entry stamped with a LOWER epoch must not
  // revalidate against the restarted counter).
  PackedShadow s;
  s.set_writer(0x6000, 1);
  EXPECT_EQ(s.writer(0x6000), 1u);  // warm the read cache
  s.set_epoch_for_testing(kTop);
  EXPECT_EQ(s.writer(0x6000), PackedShadow::kEmpty);  // stale via jump
  s.set_writer(0x6000, 2);  // re-stamp at the jumped epoch, re-warm caches
  EXPECT_EQ(s.writer(0x6000), 2u);
  s.clear();  // epoch == ~0: rollover — full release, epoch restarts at 1
  EXPECT_EQ(s.epoch(), 1u);
  EXPECT_EQ(s.page_count(), 0u);
  EXPECT_EQ(s.writer(0x6000), PackedShadow::kEmpty)
      << "a cached pre-rollover page must not satisfy post-rollover reads";
  s.set_writer(0x6000, 3);
  EXPECT_EQ(s.writer(0x6000), 3u);
  s.clear();  // ordinary epoch bump after the restart
  EXPECT_EQ(s.writer(0x6000), PackedShadow::kEmpty);
}

TEST(PackedShadow, WriteLookasideIsDroppedByClear) {
  PackedShadow s;
  s.set_writer(0x7000, 1);  // warms the write cache for this page
  s.clear();
  // A write-cache hit after clear() would scribble into the stale page
  // without re-stamping it, making the value invisible to reads.
  s.set_writer(0x7000, 2);
  EXPECT_EQ(s.writer(0x7000), 2u);
}

// ---- Forks (two-level CoW) -------------------------------------------------

TEST(PackedShadow, ForkSeesParentStateAndDivergesOnWrite) {
  PackedShadow parent;
  parent.set_writer(0x8000, 1);
  parent.set_reader(0x9000, 2);
  PackedShadow child = parent.fork();
  EXPECT_EQ(child.writer(0x8000), 1u);
  EXPECT_EQ(child.reader(0x9000), 2u);
  child.set_writer(0x8000, 7);
  parent.set_reader(0x9000, 8);
  EXPECT_EQ(parent.writer(0x8000), 1u);
  EXPECT_EQ(child.writer(0x8000), 7u);
  EXPECT_EQ(child.reader(0x9000), 2u);
  EXPECT_EQ(parent.reader(0x9000), 8u);
}

TEST(PackedShadow, ForkThenParentClearLeavesForkIntact) {
  // Regression: the epoch is PER SPACE.  A clear() in one holder must not
  // leak through shared pages into the other — in either direction.
  PackedShadow parent;
  parent.set_writer(0xA000, 1);
  PackedShadow child = parent.fork();
  parent.clear();
  EXPECT_EQ(parent.writer(0xA000), PackedShadow::kEmpty);
  EXPECT_EQ(child.writer(0xA000), 1u)
      << "the parent's epoch bump must not clear the fork";
  parent.set_writer(0xA000, 5);  // must CoW, not reset the shared page
  EXPECT_EQ(child.writer(0xA000), 1u);
  child.clear();
  EXPECT_EQ(child.writer(0xA000), PackedShadow::kEmpty);
  EXPECT_EQ(parent.writer(0xA000), 5u);
  child.set_writer(0xA000, 9);
  EXPECT_EQ(parent.writer(0xA000), 5u);
}

TEST(PackedShadow, SiblingForksDivergeIndependently) {
  PackedShadow base;
  base.set_writer(0xB000, 1);
  PackedShadow a = base.fork();
  PackedShadow b = base.fork();
  a.set_writer(0xB000, 2);
  b.set_writer(0xB000, 3);
  EXPECT_EQ(base.writer(0xB000), 1u);
  EXPECT_EQ(a.writer(0xB000), 2u);
  EXPECT_EQ(b.writer(0xB000), 3u);
}

TEST(PackedShadow, WritesInOneChunkStayInvisibleAcrossTheForkBoundary) {
  // Chunk-level CoW: the first write through a shared chunk clones the
  // chunk.  Writes to DIFFERENT pages of the same chunk from both holders
  // must still be isolated.
  PackedShadow parent;
  const std::uintptr_t page0 = 0;
  const std::uintptr_t page1 = PackedShadow::kPageSlots;
  parent.set_writer(page0, 1);
  parent.set_writer(page1, 2);
  PackedShadow child = parent.fork();
  parent.set_writer(page0, 10);  // parent clones the chunk, CoWs page 0
  child.set_writer(page1, 20);   // child writes page 1 through its copy
  EXPECT_EQ(parent.writer(page0), 10u);
  EXPECT_EQ(parent.writer(page1), 2u);
  EXPECT_EQ(child.writer(page0), 1u);
  EXPECT_EQ(child.writer(page1), 20u);
}

TEST(PackedShadow, ForkAfterForkChains) {
  PackedShadow base;
  base.set_writer(0xC000, 1);
  PackedShadow child = base.fork();
  child.set_writer(0xC000, 2);
  PackedShadow grand = child.fork();
  grand.set_writer(0xC000, 3);
  EXPECT_EQ(base.writer(0xC000), 1u);
  EXPECT_EQ(child.writer(0xC000), 2u);
  EXPECT_EQ(grand.writer(0xC000), 3u);
}

TEST(PackedShadow, ChunkTableGrowthKeepsEveryChunk) {
  // One page in each of 100 chunks: the chunk table starts at 16 cells and
  // doubles past 3/4 load, so these inserts rebuild it four times.
  constexpr std::uintptr_t kStride =
      std::uintptr_t{1} << (PackedShadow::kSlotBits + PackedShadow::kChunkBits);
  constexpr unsigned kChunks = 100;
  PackedShadow s;
  for (unsigned i = 0; i < kChunks; ++i) {
    s.set_writer(i * kStride, i + 1);
    s.set_reader(i * kStride + 1, i + 1000);
  }
  EXPECT_EQ(s.page_count(), kChunks);
  for (unsigned i = 0; i < kChunks; ++i) {
    EXPECT_EQ(s.writer(i * kStride), i + 1) << "chunk " << i;
    EXPECT_EQ(s.reader(i * kStride + 1), i + 1000) << "chunk " << i;
  }

  PackedShadow f = s.fork();
  for (unsigned i = 0; i < kChunks; ++i) f.set_writer(i * kStride, i + 2000);
  for (unsigned i = 0; i < kChunks; ++i) {
    EXPECT_EQ(s.writer(i * kStride), i + 1) << "chunk " << i;
    EXPECT_EQ(f.writer(i * kStride), i + 2000) << "chunk " << i;
    EXPECT_EQ(f.reader(i * kStride + 1), i + 1000) << "chunk " << i;
  }

  s.clear();
  for (unsigned i = 0; i < kChunks; ++i) {
    EXPECT_EQ(s.writer(i * kStride), PackedShadow::kEmpty) << "chunk " << i;
    EXPECT_EQ(s.reader(i * kStride + 1), PackedShadow::kEmpty);
    EXPECT_EQ(f.writer(i * kStride), i + 2000) << "chunk " << i;
  }
}

// ---- Primitive-level oracle ------------------------------------------------

// What one granule should hold: ids (kEmpty when unset) and the offsets
// recorded with them.
struct RefSlot {
  PackedShadow::Payload reader = PackedShadow::kEmpty;
  PackedShadow::Payload writer = PackedShadow::kEmpty;
  unsigned reader_offset = 0;
  unsigned writer_offset = 0;
};
using RefMap = std::unordered_map<std::uintptr_t, RefSlot>;

void expect_matches(PackedShadow& s, const RefMap& ref, std::uintptr_t g,
                    int step) {
  const auto it = ref.find(g);
  const RefSlot want = it == ref.end() ? RefSlot{} : it->second;
  ASSERT_EQ(s.reader(g), want.reader) << "granule " << g << ", op " << step;
  ASSERT_EQ(s.writer(g), want.writer) << "granule " << g << ", op " << step;
  if (want.reader != PackedShadow::kEmpty) {
    ASSERT_EQ(s.reader_offset(g), want.reader_offset) << "granule " << g;
  }
  if (want.writer != PackedShadow::kEmpty) {
    ASSERT_EQ(s.writer_offset(g), want.writer_offset) << "granule " << g;
  }
}

TEST(PackedShadow, MatchesReferenceMapUnderRandomOps) {
  // Up to four live spaces (forks of forks, some overwritten by move), each
  // with its own reference map.  Granules cluster on three low pages, so
  // the lookasides and page-runs are exercised, and on the two pages that
  // end at UINTPTR_MAX; half of all ops revisit a granule already written.
  Rng rng(77);
  std::vector<PackedShadow> spaces(1);
  std::vector<RefMap> refs(1);
  std::vector<std::uintptr_t> written;  // every granule ever set
  const auto granule = [&]() -> std::uintptr_t {
    if (!written.empty() && rng.chance(0.5)) {
      return written[rng.below(written.size())];
    }
    return rng.chance(0.5) ? 0x10000 + rng.below(3 * PackedShadow::kPageSlots)
                           : kTop - rng.below(2 * PackedShadow::kPageSlots);
  };
  for (int step = 0; step < 20000; ++step) {
    const std::size_t k = rng.below(spaces.size());
    PackedShadow& s = spaces[k];
    RefMap& ref = refs[k];
    const std::uint64_t roll = rng.below(1000);
    const std::uintptr_t g = granule();
    if (roll < 300) {
      const bool write = (roll & 1) != 0;
      const auto v = rng.chance(0.05)
                         ? PackedShadow::kEmpty
                         : static_cast<PackedShadow::Payload>(rng.below(1000));
      const auto off = static_cast<unsigned>(rng.below(20));
      RefSlot& r = ref[g];
      written.push_back(g);
      if (write) {
        s.set_writer(g, v, off);
        r.writer = v;
        r.writer_offset = std::min(off, PackedShadow::kMaxOffset);
      } else {
        s.set_reader(g, v, off);
        r.reader = v;
        r.reader_offset = std::min(off, PackedShadow::kMaxOffset);
      }
    } else if (roll < 360) {
      s.clear_granule(g);
      ref.erase(g);
      expect_matches(s, ref, g, step);
    } else if (roll < 380) {
      const std::uintptr_t span = rng.below(PackedShadow::kPageSlots + 50);
      const std::uintptr_t last = g > kTop - span ? kTop : g + span;
      s.clear_range(g, last);
      for (auto it = ref.begin(); it != ref.end();) {
        it = it->first >= g && it->first <= last ? ref.erase(it) : ++it;
      }
      for (std::uintptr_t h = g;; ++h) {
        expect_matches(s, ref, h, step);
        if (::testing::Test::HasFatalFailure() || h == last) break;
      }
    } else if (roll < 383) {
      s.clear();
      ref.clear();
    } else if (roll < 388) {
      PackedShadow f = s.fork();
      const RefMap copy = ref;
      if (spaces.size() < 4) {
        spaces.push_back(std::move(f));
        refs.push_back(copy);
      } else {
        const std::size_t j = rng.below(spaces.size());
        spaces[j] = std::move(f);  // releases the overwritten space
        refs[j] = copy;
      }
    } else {
      expect_matches(s, ref, g, step);
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Cleared granules are absent from the maps, so sweep every granule
  // ever written: one that survived a clear shows up here.
  for (std::size_t k = 0; k < spaces.size(); ++k) {
    for (const std::uintptr_t g : written) {
      expect_matches(spaces[k], refs[k], g, -1);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(PackedShadow, MoveTransfersStateAndLeavesSourceEmpty) {
  PackedShadow a;
  a.set_writer(0xD000, 4);
  PackedShadow b = std::move(a);
  EXPECT_EQ(b.writer(0xD000), 4u);
  PackedShadow c;
  c.set_writer(0xE000, 5);
  c = std::move(b);
  EXPECT_EQ(c.writer(0xD000), 4u);
  EXPECT_EQ(c.writer(0xE000), PackedShadow::kEmpty);
}

// ---- Facade ----------------------------------------------------------------

// The name dates from when AccessShadow switched between two slot
// encodings; the body now holds the one layer over PackedShadow.
TEST(AccessShadow, BothEncodingsAgreeOnTheLogicalInterface) {
  AccessShadow s;
  EXPECT_EQ(s.reader(0x100), AccessShadow::kEmpty);
  s.set_reader(0x100, 1, 2);
  s.set_writer(0x100, 2, 3);
  EXPECT_EQ(s.reader(0x100), 1u);
  EXPECT_EQ(s.writer(0x100), 2u);
  s.clear_granule(0x100);
  EXPECT_EQ(s.reader(0x100), AccessShadow::kEmpty);
  EXPECT_EQ(s.writer(0x100), AccessShadow::kEmpty);
  s.set_writer(0x200, 7);
  AccessShadow f = s.fork();
  f.set_writer(0x200, 8);
  s.clear();
  EXPECT_EQ(s.writer(0x200), AccessShadow::kEmpty);
  EXPECT_EQ(f.writer(0x200), 8u);
}

// AccessShadow is a layer over exactly one PackedShadow: a second backend
// would have to grow it.
static_assert(sizeof(AccessShadow) == sizeof(PackedShadow));

}  // namespace
}  // namespace rader::shadow
