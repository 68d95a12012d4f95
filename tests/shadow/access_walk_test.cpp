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
