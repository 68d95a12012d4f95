// The page-run access walk against the per-granule loop it replaced.
//
// AccessShadow::check_access (shadow/access_shadow.hpp) visits an access one
// page-run at a time, decides each (reader, writer) pair once while
// consecutive granules repeat it, takes the writable page only when a store
// is due, and clear_range empties a range with one fill per page.  This
// battery replays seeded random access/clear streams through the walk and
// through a per-granule reference (the detectors' former loop, over the
// same per-granule primitives) and requires identical slot contents,
// identical reports — as a sequence and as RaceLog::to_json() — and
// identical shadow.pages_touched / pages_cow / page_resets counters.  The
// streams cover granule sizes 0..3, accesses and clears straddling page and
// chunk boundaries, absent pages, stale-epoch pages (after clear()) and
// pages CoW-shared with a fork.  A third side runs the walk over the legacy
// encoding, whose per-granule fallback must report the same races.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <utility>
#include <vector>

#include "core/race_report.hpp"
#include "shadow/access_shadow.hpp"
#include "support/hash.hpp"
#include "support/metrics.hpp"

namespace rader::shadow {
namespace {

using Payload = AccessShadow::Payload;

constexpr std::uintptr_t kPageGranules = PackedShadow::kPageSlots;
constexpr std::uintptr_t kChunkGranules =
    PackedShadow::kPageSlots * PackedShadow::kChunkPages;
constexpr std::uintptr_t kTop = ~std::uintptr_t{0};

struct Report {
  std::uintptr_t g;
  std::uintptr_t b;
  Payload prior;
  bool prior_was_write;
  bool operator==(const Report&) const = default;
};

/// The detector-specific predicate, made up: a pure function of the prior
/// id and a per-access salt, as the real ones are pure per access.
AccessShadow::Verdict verdict_of(Payload prior, std::uint64_t salt) {
  const std::uint64_t h = mix64(prior ^ salt);
  return {(h & 3) == 0, (h & 4) != 0};
}

/// The per-granule loop the detectors ran before the walk.
void reference_access(AccessShadow& s, bool is_write, std::uintptr_t addr,
                      std::size_t size, unsigned gb, Payload cur,
                      std::uint64_t salt, std::vector<Report>* out) {
  const std::uintptr_t first = addr >> gb;
  const std::uintptr_t last = access_last_byte(addr, size) >> gb;
  for (std::uintptr_t g = first;; ++g) {
    const std::uintptr_t b = std::max(addr, g << gb);
    const auto off = static_cast<unsigned>(b - (g << gb));
    const Payload w = s.writer(g);
    const Payload r = s.reader(g);
    if (is_write && r != AccessShadow::kEmpty && verdict_of(r, salt).races) {
      out->push_back({g, b, r, false});
    }
    if (w != AccessShadow::kEmpty && verdict_of(w, salt).races) {
      out->push_back({g, b, w, true});
    }
    if (is_write) {
      if (w == AccessShadow::kEmpty || verdict_of(w, salt).replace) {
        s.set_writer(g, cur, off);
      }
    } else if (r == AccessShadow::kEmpty || verdict_of(r, salt).replace) {
      s.set_reader(g, cur, off);
    }
    if (g == last) break;
  }
}

/// clear_granule's rule, one granule at a time: absent and stale pages
/// already read empty and are left alone.
void reference_clear(PackedShadow& p, std::uintptr_t first,
                     std::uintptr_t last) {
  for (std::uintptr_t g = first;; ++g) {
    if (p.peek_run(g) != nullptr) *p.writable_run(g) = PackedShadow::kEmptySlot;
    if (g == last) break;
  }
}

std::uint64_t raw_slot(PackedShadow& p, std::uintptr_t g) {
  const std::uint64_t* run = p.peek_run(g);
  return run == nullptr ? PackedShadow::kEmptySlot : *run;
}

enum class OpKind { kRead, kWrite, kClear, kEpochClear, kFork, kSwitch };

struct Op {
  OpKind kind;
  std::uintptr_t addr = 0;
  std::size_t size = 0;
  Payload cur = 0;
  std::uint64_t salt = 0;
};

/// One side of the comparison: the shadow being driven, the forks that
/// share its pages, and what it reported.
struct Side {
  enum class Mode { kReference, kWalk, kLegacyWalk };

  explicit Side(Mode m)
      : mode(m),
        shadow(m == Mode::kLegacyWalk ? SlotEncoding::kLegacy
                                      : SlotEncoding::kPacked) {}

  void apply(const Op& op, unsigned gb) {
    metrics::Scope scope(&registry);
    switch (op.kind) {
      case OpKind::kRead:
      case OpKind::kWrite: {
        const bool is_write = op.kind == OpKind::kWrite;
        const std::size_t before = reports.size();
        if (mode == Mode::kReference) {
          reference_access(shadow, is_write, op.addr, op.size, gb, op.cur,
                           op.salt, &reports);
        } else {
          shadow.check_access(
              is_write, op.addr, op.size, gb, op.cur,
              [&](Payload prior) { return verdict_of(prior, op.salt); },
              [&](std::uintptr_t g, std::uintptr_t b, Payload prior,
                  bool prior_was_write) {
                reports.push_back({g, b, prior, prior_was_write});
              });
        }
        for (std::size_t i = before; i < reports.size(); ++i) {
          const Report& r = reports[i];
          log.report_determinacy(make_determinacy_race(
              r.b, is_write ? AccessKind::kWrite : AccessKind::kRead, false,
              r.prior_was_write, r.prior, op.cur, "walk"));
        }
        break;
      }
      case OpKind::kClear: {
        const std::uintptr_t first = op.addr >> gb;
        const std::uintptr_t last = access_last_byte(op.addr, op.size) >> gb;
        if (mode == Mode::kReference) {
          reference_clear(shadow.packed_for_testing(), first, last);
        } else {
          shadow.clear_range(first, last);
        }
        break;
      }
      case OpKind::kEpochClear:
        shadow.clear();
        break;
      case OpKind::kFork:
        if (forks.size() == 2) forks.erase(forks.begin());
        forks.push_back(shadow.fork());
        break;
      case OpKind::kSwitch:
        // Continue on a fork: its pages are shared with the space left
        // behind, so its first writes un-share them.
        if (!forks.empty()) std::swap(shadow, forks.back());
        break;
    }
  }

  std::uint64_t counter(metrics::Counter c) const {
    return registry.snapshot().counter(c);
  }

  Mode mode;
  AccessShadow shadow;
  std::vector<AccessShadow> forks;
  std::vector<Report> reports;
  RaceLog log;
  metrics::Registry registry;
};

struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    state += 0x9E3779B97F4A7C15ull;
    return mix64(state);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

/// A seeded op stream whose accesses cluster around page and chunk
/// boundaries (and the top of the address space), so runs split there.
std::vector<Op> make_stream(std::uint64_t seed, unsigned gb, int ops) {
  Rng rng{(seed + 1) * 0x2545F4914F6CDD1Dull + gb};
  const std::uintptr_t hotspots[] = {
      kPageGranules,      2 * kPageGranules,     3 * kPageGranules,
      kChunkGranules,     kChunkGranules + kPageGranules,
      2 * kChunkGranules, 5 * kPageGranules + 100};
  std::vector<Op> stream;
  for (int i = 0; i < ops; ++i) {
    Op op;
    const std::uint64_t roll = rng.below(100);
    op.kind = roll < 40   ? OpKind::kRead
              : roll < 80 ? OpKind::kWrite
              : roll < 91 ? OpKind::kClear
              : roll < 94 ? OpKind::kEpochClear
              : roll < 97 ? OpKind::kFork
                          : OpKind::kSwitch;
    if (rng.below(40) == 0) {
      op.addr = kTop - rng.below(64);  // last granule of the address space
    } else {
      const std::uintptr_t hot = hotspots[rng.below(std::size(hotspots))];
      op.addr = (hot << gb) + rng.below(256) - 128;
    }
    const std::uint64_t shape = rng.below(20);
    op.size = shape == 0   ? (2 * kPageGranules << gb) + rng.below(64)
              : shape < 4 ? 1 + rng.below(512)
                          : 1 + rng.below(48);
    op.cur = static_cast<Payload>(rng.below(12));
    op.salt = rng.next();
    stream.push_back(op);
  }
  return stream;
}

bool straddles(const Op& op, unsigned gb, std::uintptr_t unit) {
  const std::uintptr_t first = op.addr >> gb;
  const std::uintptr_t last = access_last_byte(op.addr, op.size) >> gb;
  return first / unit != last / unit;
}

class AccessWalk : public ::testing::TestWithParam<unsigned> {};

TEST_P(AccessWalk, MatchesThePerGranuleReference) {
  const unsigned gb = GetParam();
  int page_straddles = 0;
  int chunk_straddles = 0;
  std::uint64_t total_reports = 0;
  std::uint64_t resets = 0;
  std::uint64_t cows = 0;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const std::vector<Op> stream = make_stream(seed, gb, 400);
    Side ref(Side::Mode::kReference);
    Side walk(Side::Mode::kWalk);
    Side legacy(Side::Mode::kLegacyWalk);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const Op& op = stream[i];
      ref.apply(op, gb);
      walk.apply(op, gb);
      legacy.apply(op, gb);
      if (op.kind != OpKind::kRead && op.kind != OpKind::kWrite &&
          op.kind != OpKind::kClear) {
        continue;
      }
      page_straddles += straddles(op, gb, kPageGranules);
      chunk_straddles += straddles(op, gb, kChunkGranules);
      // Every slot the op covered, one granule beyond each end, must agree.
      const std::uintptr_t first = op.addr >> gb;
      const std::uintptr_t last = access_last_byte(op.addr, op.size) >> gb;
      const std::uintptr_t lo = first == 0 ? 0 : first - 1;
      const std::uintptr_t hi = last == kTop ? kTop : last + 1;
      for (std::uintptr_t g = lo;; ++g) {
        ASSERT_EQ(raw_slot(walk.shadow.packed_for_testing(), g),
                  raw_slot(ref.shadow.packed_for_testing(), g))
            << "seed " << seed << " op " << i << " granule " << g;
        ASSERT_EQ(legacy.shadow.reader(g), ref.shadow.reader(g))
            << "seed " << seed << " op " << i << " granule " << g;
        ASSERT_EQ(legacy.shadow.writer(g), ref.shadow.writer(g))
            << "seed " << seed << " op " << i << " granule " << g;
        if (g == hi) break;
      }
      ASSERT_EQ(walk.reports.size(), ref.reports.size())
          << "seed " << seed << " op " << i;
    }
    EXPECT_EQ(walk.reports, ref.reports) << "seed " << seed;
    EXPECT_EQ(legacy.reports, ref.reports) << "seed " << seed;
    EXPECT_EQ(walk.log.to_json(), ref.log.to_json()) << "seed " << seed;
    EXPECT_EQ(legacy.log.to_json(), ref.log.to_json()) << "seed " << seed;
    for (const auto c : {metrics::Counter::kShadowPagesTouched,
                         metrics::Counter::kShadowPagesCoW,
                         metrics::Counter::kShadowPageResets}) {
      EXPECT_EQ(walk.counter(c), ref.counter(c))
          << "seed " << seed << " counter " << metrics::counter_name(c);
    }
    total_reports += ref.reports.size();
    resets += ref.counter(metrics::Counter::kShadowPageResets);
    cows += ref.counter(metrics::Counter::kShadowPagesCoW);
  }
  // The streams must actually reach the corners this battery is about.
  EXPECT_GT(page_straddles, 0);
  EXPECT_GT(chunk_straddles, 0);
  EXPECT_GT(total_reports, 0u);
  EXPECT_GT(resets, 0u) << "no stale-epoch page was ever rewritten";
  EXPECT_GT(cows, 0u) << "no fork-shared page was ever un-shared";
}

INSTANTIATE_TEST_SUITE_P(GranuleBits, AccessWalk,
                         ::testing::Values(0u, 1u, 2u, 3u));

// ---- Edge cases of the uniform-run walk ------------------------------------
//
// Hand-built streams for the corners a random stream reaches only by luck:
// a run whose first granule alone carries an extent offset, runs that differ
// only in that offset, a racing run, and runs crossing into absent, stale
// and fork-shared pages.  Each is held to the per-granule reference exactly
// as the battery above holds a random stream.

/// A salt under which verdict_of gives each listed prior the listed verdict.
std::uint64_t salt_where(
    std::initializer_list<std::pair<Payload, AccessShadow::Verdict>> want) {
  for (std::uint64_t salt = 1;; ++salt) {
    bool ok = true;
    for (const auto& [prior, v] : want) {
      const AccessShadow::Verdict got = verdict_of(prior, salt);
      ok = ok && got.races == v.races && got.replace == v.replace;
    }
    if (ok) return salt;
  }
}

constexpr AccessShadow::Verdict kSeries{false, true};
constexpr AccessShadow::Verdict kParallelKept{true, false};
constexpr AccessShadow::Verdict kParallelReplaced{true, true};

/// The reference, the walk and the legacy walk driven by the same ops.
struct Sides {
  Side ref{Side::Mode::kReference};
  Side walk{Side::Mode::kWalk};
  Side legacy{Side::Mode::kLegacyWalk};

  void apply(const std::vector<Op>& ops, unsigned gb) {
    for (const Op& op : ops) {
      ref.apply(op, gb);
      walk.apply(op, gb);
      legacy.apply(op, gb);
    }
  }

  /// What the battery requires: equal slots over granules [lo, hi], equal
  /// report sequences and JSON, equal page counters.
  void expect_agree(std::uintptr_t lo, std::uintptr_t hi) {
    for (std::uintptr_t g = lo;; ++g) {
      ASSERT_EQ(raw_slot(walk.shadow.packed_for_testing(), g),
                raw_slot(ref.shadow.packed_for_testing(), g))
          << "granule " << g;
      ASSERT_EQ(legacy.shadow.reader(g), ref.shadow.reader(g)) << g;
      ASSERT_EQ(legacy.shadow.writer(g), ref.shadow.writer(g)) << g;
      if (g == hi) break;
    }
    EXPECT_EQ(walk.reports, ref.reports);
    EXPECT_EQ(legacy.reports, ref.reports);
    EXPECT_EQ(walk.log.to_json(), ref.log.to_json());
    EXPECT_EQ(legacy.log.to_json(), ref.log.to_json());
    for (const auto c : {metrics::Counter::kShadowPagesTouched,
                         metrics::Counter::kShadowPagesCoW,
                         metrics::Counter::kShadowPageResets}) {
      EXPECT_EQ(walk.counter(c), ref.counter(c)) << metrics::counter_name(c);
    }
  }
};

class AccessWalkOffset : public ::testing::TestWithParam<unsigned> {};

TEST_P(AccessWalkOffset, OnlyTheFirstGranuleOfAUniformRunCarriesAnOffset) {
  const unsigned gb = GetParam();
  const std::uintptr_t g0 = kPageGranules + 40;
  const std::size_t span = 10 << gb;
  const std::uint64_t salt = salt_where({{5, kSeries}});
  Sides sides;
  // An aligned write leaves ten identical slots; a read starting one byte
  // into the first of them then covers them as one run.
  sides.apply({Op{OpKind::kWrite, g0 << gb, span, 5, salt},
               Op{OpKind::kRead, (g0 << gb) + 1, span - 1, 7, salt}},
              gb);
  sides.expect_agree(g0 - 1, g0 + 10);
  AccessShadow& s = sides.walk.shadow;
  EXPECT_EQ(s.reader(g0), 7u);
  EXPECT_EQ(s.reader_offset(g0), 1u);
  PackedShadow& p = s.packed_for_testing();
  for (std::uintptr_t g = g0 + 1; g < g0 + 10; ++g) {
    EXPECT_EQ(raw_slot(p, g), raw_slot(p, g0 + 1)) << g;
    EXPECT_EQ(s.reader_offset(g), 0u) << g;
  }
  EXPECT_EQ(raw_slot(p, g0) & PackedShadow::kPairMask,
            raw_slot(p, g0 + 1) & PackedShadow::kPairMask)
      << "the first slot differs from the rest in its offset only";
}

INSTANTIATE_TEST_SUITE_P(GranuleBits, AccessWalkOffset,
                         ::testing::Values(1u, 2u, 3u));

TEST(AccessWalkEdge, RunsBrokenOnlyByAnOffsetShareOneDecision) {
  const unsigned gb = 2;
  const std::uintptr_t g0 = 3 * kPageGranules + 8;
  const std::uint64_t quiet = salt_where({{5, kSeries}});
  const std::uint64_t racy = salt_where({{5, kParallelReplaced}});
  // [g0, g0+8] hold writer 5; the second write re-records g0+4 with offset
  // 1, so all nine slots hold one pair but form three runs.  The third
  // write races with that writer on every granule.
  const std::vector<Op> ops = {
      Op{OpKind::kWrite, g0 << gb, 9 << gb, 5, quiet},
      Op{OpKind::kWrite, ((g0 + 4) << gb) + 1, (5 << gb) - 1, 5, quiet},
      Op{OpKind::kWrite, g0 << gb, 9 << gb, 6, racy}};
  Sides sides;
  sides.apply({ops[0], ops[1]}, gb);
  PackedShadow& p = sides.walk.shadow.packed_for_testing();
  ASSERT_NE(raw_slot(p, g0 + 4), raw_slot(p, g0 + 3));
  ASSERT_EQ(raw_slot(p, g0 + 4) & PackedShadow::kPairMask,
            raw_slot(p, g0 + 3) & PackedShadow::kPairMask);

  // Three runs, one pair: the walk classifies the writer once.
  AccessShadow probe(SlotEncoding::kPacked);
  for (const Op& op : {ops[0], ops[1]}) {
    probe.check_access(
        true, op.addr, op.size, gb, op.cur,
        [&](Payload prior) { return verdict_of(prior, op.salt); },
        [](std::uintptr_t, std::uintptr_t, Payload, bool) {});
  }
  int classified = 0;
  std::vector<std::uintptr_t> reported;
  probe.check_access(
      true, ops[2].addr, ops[2].size, gb, ops[2].cur,
      [&](Payload prior) {
        ++classified;
        return verdict_of(prior, racy);
      },
      [&](std::uintptr_t g, std::uintptr_t, Payload prior, bool was_write) {
        EXPECT_EQ(prior, 5u);
        EXPECT_TRUE(was_write);
        reported.push_back(g);
      });
  EXPECT_EQ(classified, 1);
  EXPECT_EQ(reported.size(), 9u) << "one report per granule of all three runs";

  sides.apply({ops[2]}, gb);
  sides.expect_agree(g0 - 1, g0 + 9);
}

TEST(AccessWalkEdge, ARacingRunReportsEveryGranuleReaderFirst) {
  const unsigned gb = 0;
  const std::uintptr_t g0 = kChunkGranules + 16;
  const std::uint64_t quiet = salt_where({{3, kSeries}});
  const std::uint64_t racy =
      salt_where({{3, kParallelReplaced}, {4, kParallelKept}});
  Sides sides;
  sides.apply({Op{OpKind::kWrite, g0, 8, 3, quiet},
               Op{OpKind::kRead, g0, 8, 4, quiet},
               Op{OpKind::kWrite, g0, 8, 6, racy}},
              gb);
  sides.expect_agree(g0 - 1, g0 + 8);
  std::vector<Report> want;
  for (std::uintptr_t g = g0; g < g0 + 8; ++g) {
    want.push_back({g, g, 4, false});
    want.push_back({g, g, 3, true});
  }
  EXPECT_EQ(sides.walk.reports, want);
  EXPECT_EQ(sides.walk.shadow.writer(g0 + 7), 6u);
  EXPECT_EQ(sides.walk.shadow.reader(g0 + 7), 4u);
}

TEST(AccessWalkEdge, RunsCrossIntoAbsentStaleAndForkSharedPages) {
  const unsigned gb = 1;
  const std::uintptr_t p1 = 4 * kPageGranules;  // first granule of a page
  const std::uint64_t salt = salt_where({{1, kSeries}, {2, kSeries}});
  const auto write = [&](std::uintptr_t g, std::uintptr_t n, Payload cur) {
    return Op{OpKind::kWrite, g << gb, n << gb, cur, salt};
  };
  Sides sides;
  // Absent: the page before the boundary holds a uniform run, the one
  // after it has never been written.
  sides.apply({write(p1 - 16, 16, 1), write(p1 - 8, 16, 2)}, gb);
  sides.expect_agree(p1 - 17, p1 + 9);
  // Stale: both pages are mapped, then cleared by epoch, then the lower
  // one is rewritten, so the run crosses from a current page to a stale one.
  sides.apply({write(p1 - 16, 32, 1), Op{OpKind::kEpochClear},
               write(p1 - 16, 16, 1), write(p1 - 8, 16, 2)},
              gb);
  sides.expect_agree(p1 - 17, p1 + 17);
  // Fork-shared: both pages are shared with a fork, so the run un-shares
  // each of them on its first store.
  sides.apply({write(p1 - 16, 32, 1), Op{OpKind::kFork}, write(p1 - 8, 16, 2)},
              gb);
  sides.expect_agree(p1 - 17, p1 + 17);
  EXPECT_GT(sides.ref.counter(metrics::Counter::kShadowPageResets), 0u);
  EXPECT_EQ(sides.ref.counter(metrics::Counter::kShadowPagesCoW), 2u);
  EXPECT_EQ(sides.walk.forks.back().writer(p1), 1u) << "the fork kept its page";
}

TEST(AccessWalkDeathTest, OversizePayloadIsRejected) {
  const Payload too_big = AccessShadow::kMaxPayload + 1;
  const auto replace = [](Payload) { return kSeries; };
  const auto ignore = [](std::uintptr_t, std::uintptr_t, Payload, bool) {};
  EXPECT_DEATH(
      {
        AccessShadow s(SlotEncoding::kPacked);
        s.check_access(true, kPageGranules, 8, 0, too_big, replace, ignore);
      },
      "28-bit slot field");
  EXPECT_DEATH(
      {
        AccessShadow s(SlotEncoding::kPacked);
        s.check_access(true, kPageGranules, 8, 0, 9, replace, ignore);
        s.check_access(false, kPageGranules, 8, 0, too_big, replace, ignore);
      },
      "28-bit slot field");
}

TEST(AccessWalk, ClearRangeNeverMaterializesAPage) {
  metrics::Registry reg;
  metrics::Scope scope(&reg);
  PackedShadow s;
  s.clear_range(0, 3 * kPageGranules);  // absent pages
  EXPECT_EQ(s.page_count(), 0u);
  s.set_writer(kPageGranules + 5, 7);
  s.clear();  // the page goes stale
  s.clear_range(0, 3 * kPageGranules);
  EXPECT_EQ(s.page_count(), 1u);
  EXPECT_EQ(reg.snapshot().counter(metrics::Counter::kShadowPageResets), 0u)
      << "a stale page must not be reset just to store emptiness";
}

TEST(AccessWalk, ClearRangeUnsharesAForkSharedPageBeforeWriting) {
  PackedShadow s;
  s.set_writer(kPageGranules + 1, 3);
  s.set_reader(kPageGranules + 2, 4);
  PackedShadow fork = s.fork();
  s.clear_range(kPageGranules, kPageGranules + 1);
  EXPECT_EQ(s.writer(kPageGranules + 1), PackedShadow::kEmpty);
  EXPECT_EQ(s.reader(kPageGranules + 2), 4u) << "outside the range";
  EXPECT_EQ(fork.writer(kPageGranules + 1), 3u) << "the fork kept its page";
}

TEST(AccessWalk, PeekRunNeverAllocates) {
  PackedShadow s;
  EXPECT_EQ(s.peek_run(kChunkGranules + 3), nullptr);
  EXPECT_EQ(s.page_count(), 0u);
  s.set_reader(kChunkGranules + 3, 1);
  const std::uint64_t* run = s.peek_run(kChunkGranules + 3);
  ASSERT_NE(run, nullptr);
  EXPECT_EQ(PackedShadow::reader_of(run[0]), 1u);
  EXPECT_EQ(PackedShadow::reader_of(run[1]), PackedShadow::kEmpty);
  s.clear();
  EXPECT_EQ(s.peek_run(kChunkGranules + 3), nullptr) << "stale reads empty";
}

}  // namespace
}  // namespace rader::shadow
