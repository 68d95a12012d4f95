// Rerun-vs-prefix sweep equivalence battery.
//
// SweepStrategy::kPrefix (core/sweep.hpp) promises that organizing the
// specification family as a checkpoint/fork trie changes only how much
// detector work is performed, never the answer: for address-stable programs
// the merged report is BYTE-IDENTICAL to SweepStrategy::kRerun at every
// thread count — same race identity sets, same occurrence totals, same
// eliciting-spec (replay handle) sets, same spec_runs / specs_skipped —
// including under stop_after_first_race.
//
// The battery drives RADER_SWEEP_EQ_PROGRAMS seeded programs (default: the
// compile-time RADER_SWEEP_EQ_DEFAULT; the fast gate builds this file with
// 50, the stress target with 300) through both strategies at 1/2/4/8
// workers and literally compares RaceLog::to_json().
//
// What makes literal comparison valid — and what the corpus must respect:
//   * races live at GLOBAL pool addresses (stable across workers/instances);
//   * the programs only ANNOTATE accesses (no real stores), so one shared
//     instance is safe to run from many workers concurrently;
//   * control flow is a pure function of the seed — never of data read, and
//     never of the steal decisions — so every execution consumes the same
//     decision points;
//   * reducer traffic exercises view minting/merging, but nothing annotates
//     view MEMORY: views live in per-worker-thread arenas
//     (runtime/view_arena.hpp), so races at view addresses would break
//     cross-worker byte-identity.  (Programs that do race on views are
//     covered by the normalized-signature test below.)
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "apps/graph.hpp"
#include "apps/pbfs.hpp"
#include "core/driver.hpp"
#include "core/sweep.hpp"
#include "dag/random_program.hpp"
#include "reducers/monoid.hpp"
#include "reducers/reducer.hpp"
#include "runtime/api.hpp"
#include "runtime/serial_engine.hpp"
#include "spec/spec_family.hpp"
#include "spec/steal_spec.hpp"
#include "support/metrics.hpp"

#ifndef RADER_SWEEP_EQ_DEFAULT
#define RADER_SWEEP_EQ_DEFAULT 300
#endif

namespace rader {
namespace {

int program_count() {
  if (const char* env = std::getenv("RADER_SWEEP_EQ_PROGRAMS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return RADER_SWEEP_EQ_DEFAULT;
}

// ---- The seeded corpus -----------------------------------------------------

struct Rng {
  std::uint64_t state;
  std::uint64_t next() {  // splitmix64
    state += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = state;
    z ^= z >> 30;
    z *= 0xBF58476D1CE4E5B9ull;
    z ^= z >> 27;
    z *= 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
};

// Named racing locations.  Nothing is ever actually stored here — programs
// only annotate — which is what lets one instance run concurrently.
int g_pool[16];

void node(Rng& rng, reducer<monoid::op_add<long>>& sum, int depth) {
  const int actions = 2 + static_cast<int>(rng.next() % 3);
  for (int a = 0; a < actions; ++a) {
    const std::uint64_t roll = rng.next();
    const int slot = static_cast<int>((roll >> 8) % 16);
    switch (roll % 5) {
      case 0:
      case 1: {
        const bool deeper = depth < 3 && (roll & (1u << 20)) != 0;
        spawn([&rng, &sum, slot, deeper, depth] {
          shadow_write(&g_pool[slot], sizeof(int), SrcTag{"eq spawned write"});
          sum += 1;
          if (deeper) node(rng, sum, depth + 1);
        });
        break;
      }
      case 2:
        shadow_read(&g_pool[slot], sizeof(int), SrcTag{"eq continuation read"});
        break;
      case 3:
        shadow_write(&g_pool[slot], sizeof(int),
                     SrcTag{"eq continuation write"});
        break;
      case 4:
        sync();
        break;
    }
  }
  (void)sum.get_value(SrcTag{"eq tail read"});
  sync();
}

/// One corpus member: spawn/sync tree, annotated pool accesses, and reducer
/// updates, all derived from `seed` alone.  The leading spawn guarantees at
/// least one continuation point and one cross-strand race candidate.
struct SeededProgram {
  std::uint64_t seed;

  void operator()() const {
    Rng rng{(seed + 1) * 0x9E3779B97F4A7C15ull};
    reducer<monoid::op_add<long>> sum(SrcTag{"eq sum"});
    const int slot = static_cast<int>(rng.next() % 16);
    spawn([&sum, slot] {
      shadow_write(&g_pool[slot], sizeof(int), SrcTag{"eq spawned write"});
      sum += 1;
    });
    shadow_read(&g_pool[slot], sizeof(int), SrcTag{"eq continuation read"});
    node(rng, sum, 0);
    sync();
  }
};

/// The Section-7 family sized to the program (as fuzz/differ does), plus the
/// two fixed endpoints.
std::vector<std::unique_ptr<spec::StealSpec>> family_for(
    const SeededProgram& program) {
  SerialEngine::Stats probe;
  {
    spec::NoSteal none;
    SerialEngine engine(nullptr, &none);
    engine.run([&] { program(); });
    probe = engine.stats();
  }
  const auto k = std::max<std::uint32_t>(
      1, std::min<std::uint32_t>(probe.max_sync_block, 6));
  const auto d = std::max<std::uint64_t>(
      1, std::min<std::uint64_t>(probe.max_spawn_depth, 10));
  auto family = spec::full_coverage_family(k, d);
  family.push_back(std::make_unique<spec::NoSteal>());
  family.push_back(std::make_unique<spec::StealAll>());
  return family;
}

struct SweepDigest {
  std::string log_json;
  std::uint64_t spec_runs = 0;
  std::uint64_t specs_skipped = 0;
  bool any_race = false;
};

SweepDigest run_sweep(const SeededProgram& program,
                      const std::vector<std::unique_ptr<spec::StealSpec>>& fam,
                      SweepStrategy strategy, unsigned threads,
                      bool stop_first, metrics::Snapshot* metrics_out) {
  SweepOptions options;
  options.threads = threads;
  options.strategy = strategy;
  options.stop_after_first_race = stop_first;
  const SweepResult result =
      sweep_family(shared_program([program] { program(); }), fam, options);
  if (metrics_out != nullptr) metrics_out->add(result.metrics);
  return SweepDigest{result.log.to_json(), result.spec_runs,
                     result.specs_skipped, result.log.any()};
}

void expect_digest_equal(const SweepDigest& got, const SweepDigest& want,
                         std::uint64_t seed, const char* strategy,
                         unsigned threads, bool stop_first) {
  const auto ctx = [&] {
    return "seed " + std::to_string(seed) + ", " + strategy + ", " +
           std::to_string(threads) + " thread(s)" +
           (stop_first ? ", stop-first" : "");
  };
  ASSERT_EQ(got.log_json, want.log_json) << ctx();
  ASSERT_EQ(got.spec_runs, want.spec_runs) << ctx();
  ASSERT_EQ(got.specs_skipped, want.specs_skipped) << ctx();
}

// ---- Byte-identity battery -------------------------------------------------

TEST(SweepStrategyEquivalence, PrefixByteIdenticalToRerunAtEveryJobCount) {
  const int kPrograms = program_count();
  int racy = 0;
  metrics::Snapshot prefix_metrics;
  for (int seed = 1; seed <= kPrograms; ++seed) {
    const SeededProgram program{static_cast<std::uint64_t>(seed)};
    const auto family = family_for(program);
    const SweepDigest base = run_sweep(program, family, SweepStrategy::kRerun,
                                       1, false, nullptr);
    racy += base.any_race;

    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
      const SweepDigest prefix =
          run_sweep(program, family, SweepStrategy::kPrefix, threads, false,
                    &prefix_metrics);
      expect_digest_equal(prefix, base, program.seed, "prefix", threads,
                          false);
      if (threads == 1) continue;  // threads=1 rerun IS the baseline
      const SweepDigest rerun = run_sweep(program, family,
                                          SweepStrategy::kRerun, threads,
                                          false, nullptr);
      expect_digest_equal(rerun, base, program.seed, "rerun", threads, false);
    }
    if (::testing::Test::HasFailure()) return;  // first seed is enough
  }
  // The corpus must elicit races (byte-comparing empty logs proves nothing),
  // and the prefix strategy must actually fast-forward on it: the programs
  // are address-stable by construction, so every fork must be usable and no
  // resume may fall back to a fresh run.
  EXPECT_GE(racy, kPrograms / 2);
  EXPECT_GT(prefix_metrics.counter(metrics::Counter::kSweepForks), 0u);
  EXPECT_GT(prefix_metrics.counter(metrics::Counter::kSweepCheckpoints), 0u);
  EXPECT_EQ(prefix_metrics.counter(metrics::Counter::kSweepResumeFallbacks),
            0u);
}

TEST(SweepStrategyEquivalence, StopFirstByteIdenticalAtEveryJobCount) {
  // Stop-first keeps its lowest-family-index contract under prefix sharing:
  // the merged prefix [0, first racy index] — and therefore the report, the
  // replay handles, and the skip accounting — is byte-identical to rerun's
  // at every thread count.
  const int kPrograms = program_count();
  int stopped_early = 0;
  for (int seed = 1; seed <= kPrograms; ++seed) {
    const SeededProgram program{static_cast<std::uint64_t>(seed)};
    const auto family = family_for(program);
    const SweepDigest base = run_sweep(program, family, SweepStrategy::kRerun,
                                       1, true, nullptr);
    stopped_early += base.specs_skipped > 0;

    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
      const SweepDigest prefix = run_sweep(
          program, family, SweepStrategy::kPrefix, threads, true, nullptr);
      expect_digest_equal(prefix, base, program.seed, "prefix", threads, true);
      if (threads == 1) continue;
      const SweepDigest rerun = run_sweep(
          program, family, SweepStrategy::kRerun, threads, true, nullptr);
      expect_digest_equal(rerun, base, program.seed, "rerun", threads, true);
    }
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GE(stopped_early, kPrograms / 2);
}

// ---- Checkpoint placement --------------------------------------------------
//
// The prefix executor checkpoints exactly where a later family member first
// decides differently from the running one, so every member an executor runs
// after its first resumes from a checkpoint: none starts from scratch.

/// Executed members that started from scratch instead of resuming.
std::uint64_t fresh_runs(const SweepResult& result) {
  const metrics::Snapshot& m = result.metrics;
  return result.spec_runs - m.counter(metrics::Counter::kSweepDedupReuses) -
         m.counter(metrics::Counter::kSweepForks);
}

int g_slab[64];

/// Detector work concentrated before the first continuation point: the
/// first spawned child writes a slab, the K-1 later spawns do nothing.  The
/// slab is the program's only access, and it reaches a detector only in a
/// run that starts from scratch.
struct FrontLoaded {
  static constexpr std::uint64_t kSlab = sizeof(g_slab) / sizeof(g_slab[0]);
  int k;

  void operator()() const {
    spawn([] {
      for (int& slot : g_slab) {
        shadow_write(&slot, sizeof(int), SrcTag{"front slab"});
      }
    });
    for (int i = 1; i < k; ++i) spawn([] {});
    sync();
  }
};

TEST(SweepPrefixPlacement, EveryExecutedMemberAfterTheFirstResumes) {
  SweepOptions options;
  options.strategy = SweepStrategy::kPrefix;
  std::uint64_t forks = 0;
  for (int seed = 1; seed <= program_count(); ++seed) {
    const SeededProgram program{static_cast<std::uint64_t>(seed)};
    const SweepResult result = sweep_family(
        shared_program([program] { program(); }), family_for(program),
        options);
    const metrics::Snapshot& m = result.metrics;
    ASSERT_EQ(fresh_runs(result), 1u) << "seed " << seed;
    ASSERT_EQ(m.counter(metrics::Counter::kSweepResumeFallbacks), 0u)
        << "seed " << seed;
    // No speculative checkpoints: each one is where some member resumes.
    ASSERT_LE(m.counter(metrics::Counter::kSweepCheckpoints),
              m.counter(metrics::Counter::kSweepForks))
        << "seed " << seed;
    forks += m.counter(metrics::Counter::kSweepForks);
  }
  EXPECT_GT(forks, 0u);
}

TEST(SweepPrefixPlacement, FrontLoadedSlabReachesADetectorOncePerExecutor) {
  const FrontLoaded program{12};
  const auto family = spec::reduce_coverage_family(12);
  const auto sweep = [&](SweepStrategy strategy, unsigned threads) {
    SweepOptions options;
    options.strategy = strategy;
    options.threads = threads;
    return sweep_family(shared_program([program] { program(); }), family,
                        options);
  };
  const auto slab_runs = [](const SweepResult& result) {
    const std::uint64_t accesses =
        result.metrics.counter(metrics::Counter::kAccessesInstrumented);
    EXPECT_EQ(accesses % FrontLoaded::kSlab, 0u);
    return accesses / FrontLoaded::kSlab;
  };
  // Rerun delivers the slab once per member: the slab is all that counts.
  EXPECT_EQ(slab_runs(sweep(SweepStrategy::kRerun, 1)), family.size());

  const SweepResult one = sweep(SweepStrategy::kPrefix, 1);
  EXPECT_EQ(fresh_runs(one), 1u);
  EXPECT_EQ(slab_runs(one), 1u);
  EXPECT_GT(one.metrics.counter(metrics::Counter::kSweepForks),
            family.size() / 2);
  EXPECT_LE(one.metrics.counter(metrics::Counter::kSweepCheckpoints),
            one.metrics.counter(metrics::Counter::kSweepForks));
  for (const unsigned threads : {2u, 4u}) {
    // Each executor's first run checkpoints at the shallowest divergence of
    // any later member, so its later members all resume.
    const SweepResult many = sweep(SweepStrategy::kPrefix, threads);
    EXPECT_EQ(many.spec_runs, family.size());
    EXPECT_LE(fresh_runs(many), threads) << threads << " threads";
    EXPECT_EQ(slab_runs(many), fresh_runs(many)) << threads << " threads";
  }
}

// ---- Normalized equivalence on heap/view-racing programs -------------------
//
// RandomProgram instances race on their own heap pools and (with raw-view
// pokes enabled) on reducer-view memory, so byte-identity across workers
// does not apply — the guarantee degrades to the one core/sweep.hpp states
// for per-instance addresses: identical race sets up to address renaming.
// Reuse the normalized-signature methodology of
// tests/property/sweep_equivalence_test.cpp to compare the two strategies.

struct Instances {
  std::mutex m;
  std::vector<std::shared_ptr<dag::RandomProgram>> programs;
};

ProgramFactory tracking_factory(const dag::RandomProgramParams& params,
                                std::shared_ptr<Instances> instances) {
  return [params, instances] {
    auto p = std::make_shared<dag::RandomProgram>(params);
    {
      std::lock_guard<std::mutex> lock(instances->m);
      instances->programs.push_back(p);
    }
    return std::function<void()>([p] { (*p)(); });
  };
}

// identity -> (total occurrences, total eliciting specs) over the log.
using SigMap = std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>;

SigMap signatures(const RaceLog& log, const Instances& instances) {
  // RandomProgram accesses to reducer-view memory carry these labels.  View
  // objects are created and destroyed per RUN, so their addresses have no
  // cross-run name — worse, a freed view's bytes can later host another
  // instance's pool, making address classification outright misleading for
  // them.  Classify view-side races by label, address-free.
  const auto is_view_label = [](const std::string& label) {
    return label == "raw view read" || label == "raw view write" ||
           label == "cnt update" || label == "cnt update (shared)";
  };
  const auto normalize = [&](std::uintptr_t addr,
                             const std::string& label) -> std::string {
    if (is_view_label(label)) return "view";
    for (const auto& p : instances.programs) {
      const auto [lo, hi] = p->pool_range();
      if (addr >= lo && addr < hi) {
        return "pool+" + std::to_string(addr - lo);
      }
    }
    return "non-pool";
  };
  SigMap sigs;
  const auto tally = [&](const std::string& key, std::uint64_t occurrences,
                         std::uint64_t specs) {
    auto& entry = sigs[key];
    entry.first += occurrences;
    entry.second += specs;
  };
  for (const auto& r : log.determinacy_races()) {
    tally("D|" + normalize(r.addr, r.current_label) + "|" +
              std::to_string(static_cast<int>(r.current_kind)) + "|" +
              std::to_string(r.current_view_aware) + "|" +
              std::to_string(r.prior_was_write) + "|" + r.current_label,
          r.occurrences, r.eliciting_specs.size());
  }
  for (const auto& r : log.view_read_races()) {
    tally("V|" + std::to_string(r.reducer) + "|" + r.prior_label + "|" +
              r.current_label,
          r.occurrences, r.eliciting_specs.size());
  }
  return sigs;
}

// Prefix sweeps of these programs also exercise the sticky resume fallback.
// A program whose heap layout drifts between runs fails resume verification
// (ResumeDiverged).  After its first failed resume an executor takes no more
// checkpoints and runs every later member fresh: at most one fallback per
// executor, the same answer as rerun, and every checkpoint counted out.

struct ExhaustiveSweep {
  Rader::ExhaustiveResult result;
  metrics::Snapshot metrics;
};

ExhaustiveSweep exhaustive(const ProgramFactory& factory,
                           SweepStrategy strategy, unsigned threads) {
  SweepOptions options;
  options.threads = threads;
  options.strategy = strategy;
  metrics::Registry registry;
  ExhaustiveSweep out;
  {
    metrics::Scope scope(&registry);
    out.result = Rader::check_exhaustive(factory, options, /*k_cap=*/6,
                                         /*depth_cap=*/8);
  }
  out.metrics = registry.snapshot();
  return out;
}

/// The sticky-fallback bounds on one prefix sweep; returns its fallbacks.
std::uint64_t expect_sticky(const ExhaustiveSweep& sweep, unsigned threads,
                            const std::string& what) {
  const std::uint64_t fallbacks =
      sweep.metrics.counter(metrics::Counter::kSweepResumeFallbacks);
  EXPECT_LE(fallbacks, threads) << what;
  EXPECT_EQ(sweep.metrics.gauge(metrics::Gauge::kSweepCheckpointsLive).value,
            0)
      << what;
  return fallbacks;
}

TEST(SweepStrategyEquivalence, PrefixMatchesRerunOnRandomHeapPrograms) {
  const int kPrograms = std::max(10, program_count() / 5);
  int racy = 0;
  std::uint64_t fallbacks = 0;
  for (int seed = 1; seed <= kPrograms; ++seed) {
    dag::RandomProgramParams params;
    params.seed = static_cast<std::uint64_t>(seed);
    params.max_depth = 3;
    params.max_actions = 6;
    params.num_reducers = 2;
    params.num_locations = 4;
    // Raw-view pokes ON: races at reducer-view addresses drive this corpus
    // through the path byte-identity cannot cover.
    params.p_raw_view = 0.10;
    params.p_update_shared = 0.10;

    auto base_instances = std::make_shared<Instances>();
    const ExhaustiveSweep base =
        exhaustive(tracking_factory(params, base_instances),
                   SweepStrategy::kRerun, 1);
    const auto base_sigs = signatures(base.result.log, *base_instances);
    racy += base.result.log.any();

    for (const unsigned threads : {1u, 2u, 4u}) {
      const std::string what = "seed " + std::to_string(seed) + ", " +
                               std::to_string(threads) + " thread(s)";
      auto instances = std::make_shared<Instances>();
      const ExhaustiveSweep prefix = exhaustive(
          tracking_factory(params, instances), SweepStrategy::kPrefix,
          threads);
      ASSERT_EQ(prefix.result.spec_runs, base.result.spec_runs) << what;
      ASSERT_EQ(signatures(prefix.result.log, *instances), base_sigs) << what;
      fallbacks += expect_sticky(prefix, threads, what);
    }
  }
  EXPECT_GE(racy, kPrograms / 10);
  EXPECT_GT(fallbacks, 0u) << "the corpus must exercise the fallback";
}

TEST(SweepResumeFallback, StickyOnPbfs) {
  // pbfs allocates its bags per run, so resumed runs drift off the
  // checkpointed access stream and every resume fails verification.
  const apps::Graph graph = apps::Graph::rmat(300, 1900, 0x9bf5);
  const ProgramFactory factory =
      shared_program([&graph] { (void)apps::pbfs(graph, 0); });
  const ExhaustiveSweep base = exhaustive(factory, SweepStrategy::kRerun, 1);
  for (const unsigned threads : {1u, 2u, 4u}) {
    const std::string what = std::to_string(threads) + " thread(s)";
    const ExhaustiveSweep prefix =
        exhaustive(factory, SweepStrategy::kPrefix, threads);
    EXPECT_EQ(prefix.result.log.to_json(), base.result.log.to_json()) << what;
    EXPECT_EQ(prefix.result.spec_runs, base.result.spec_runs) << what;
    EXPECT_GE(expect_sticky(prefix, threads, what), 1u) << what;
  }
}

}  // namespace
}  // namespace rader
