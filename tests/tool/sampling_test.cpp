// SamplingTool statistical battery (tool/sampling.hpp).
//
// The sampling mode's whole contract is statistical, so the tests are too:
//   * determinism      — the sampled set is a pure function of (seed, rate);
//                        two runs with the same config produce byte-identical
//                        reports, and a run never consults an RNG stream.
//   * nested sets      — sampled(P1) ⊆ sampled(P2) whenever P1 <= P2 (the
//                        threshold only rises), which is what makes recall
//                        provably monotone in P.
//   * monotone recall  — on the litmus corpus the reported race-identity set
//                        only grows as P → 1.
//   * P=1 byte-identity— with rate >= 1 the wrapper forwards VERBATIM, so a
//                        sampled run reproduces the unsampled report byte for
//                        byte on the entire litmus corpus AND on every fuzz
//                        corpus reproducer, through every driver entry point.
#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/driver.hpp"
#include "dag/program_serial.hpp"
#include "dag/random_program.hpp"
#include "fuzz/differ.hpp"
#include "spec/spec_family.hpp"
#include "spec/steal_spec.hpp"
#include "support/metrics.hpp"
#include "tool/sampling.hpp"
#include "tool/tool.hpp"

#include "../litmus/litmus_cases.hpp"

#ifndef RADER_FUZZ_CORPUS_DIR
#error "RADER_FUZZ_CORPUS_DIR must point at tests/fuzz/corpus"
#endif

namespace rader {
namespace {

SamplingConfig config_for(double rate, std::uint64_t seed = 0x5eed,
                          unsigned block_bits = 12) {
  SamplingConfig config;
  config.enabled = true;
  config.rate = rate;
  config.seed = seed;
  config.block_bits = block_bits;
  return config;
}

/// check_exhaustive over the litmus case `c`, sampled per `sampling`.
Rader::ExhaustiveResult exhaustive(const litmus::Case& c,
                                   const SamplingConfig& sampling = {}) {
  SweepOptions options;
  options.sampling = sampling;
  return Rader::check_exhaustive(shared_program(c.program), options);
}

// A no-op inner detector: lets the filter itself be probed in isolation.
struct NullTool final : Tool {};

// ---- The filter as a pure function -----------------------------------------

TEST(Sampling, SampledSetIsAPureFunctionOfSeedAndRate) {
  NullTool inner;
  const SamplingTool a(&inner, config_for(0.25, 42));
  const SamplingTool b(&inner, config_for(0.25, 42));
  const SamplingTool other_seed(&inner, config_for(0.25, 43));
  int kept = 0, seed_diffs = 0;
  for (std::uintptr_t block = 0; block < 4096; ++block) {
    ASSERT_EQ(a.sampled(block), b.sampled(block)) << "block " << block;
    kept += a.sampled(block);
    seed_diffs += a.sampled(block) != other_seed.sampled(block);
  }
  // P=0.25 over 4096 blocks: binomial mean 1024, sd ~28 — a ±25% band is
  // ~9 sigma, so a pass is evidence the hash is unbiased, not luck.
  EXPECT_GT(kept, 768);
  EXPECT_LT(kept, 1280);
  EXPECT_GT(seed_diffs, 0) << "the seed must matter";
}

TEST(Sampling, SampledSetsAreNestedAsRateGrows) {
  NullTool inner;
  const double rates[] = {0.01, 0.1, 0.5, 0.9, 1.0};
  std::vector<std::unique_ptr<SamplingTool>> tools;
  for (const double rate : rates) {
    tools.push_back(
        std::make_unique<SamplingTool>(&inner, config_for(rate, 7)));
  }
  for (std::uintptr_t block = 0; block < 1 << 16; ++block) {
    for (std::size_t i = 0; i + 1 < tools.size(); ++i) {
      if (tools[i]->sampled(block)) {
        ASSERT_TRUE(tools[i + 1]->sampled(block))
            << "block " << block << " sampled at P=" << rates[i]
            << " but not at P=" << rates[i + 1];
      }
      if (tools[i]->sampled_reducer(static_cast<ReducerId>(block))) {
        ASSERT_TRUE(tools[i + 1]->sampled_reducer(static_cast<ReducerId>(block)))
            << "reducer " << block;
      }
    }
  }
}

TEST(Sampling, PerSpecSeedIsDeterministicAndSpecDependent) {
  const auto s1 = sampling_seed_for_spec(0x5eed, "no-steals");
  EXPECT_EQ(s1, sampling_seed_for_spec(0x5eed, "no-steals"));
  EXPECT_NE(s1, sampling_seed_for_spec(0x5eed, "steal-all"));
  EXPECT_NE(s1, sampling_seed_for_spec(0x5eee, "no-steals"));
}

TEST(Sampling, FilterCountsForwardedAndDroppedBlocks) {
  NullTool inner;
  SamplingTool tool(&inner, config_for(0.5, 9, /*block_bits=*/4));
  metrics::Registry registry;
  {
    metrics::Scope scope(&registry);
    // 64 single-block accesses at 16-byte blocks: every one is counted as
    // either forwarded or dropped — never silently swallowed.
    for (std::uintptr_t block = 0; block < 64; ++block) {
      tool.on_access(AccessKind::kWrite, block << 4, 4, false, kInvalidView,
                     SrcTag{"counted"});
    }
    // A multi-block access walks its covered blocks the same way.
    tool.on_access(AccessKind::kRead, 0, 64 << 4, false, kInvalidView,
                   SrcTag{"straddling"});
  }
  const auto forwarded =
      registry.snapshot().counter(metrics::Counter::kSampledAccesses);
  const auto dropped =
      registry.snapshot().counter(metrics::Counter::kSampledDropped);
  EXPECT_GT(forwarded, 0u);
  EXPECT_GT(dropped, 0u);
  EXPECT_GE(forwarded + dropped, 64u);
}

// ---- Litmus corpus: P=1 identity and monotone recall ------------------------

TEST(Sampling, RateOneIsByteIdenticalToUnsampledOnTheWholeLitmusCorpus) {
  const SamplingConfig p1 = config_for(1.0, /*seed=*/0xDEADBEEF);
  for (const auto& c : litmus::all_cases()) {
    EXPECT_EQ(Rader::check_view_read(c.program, p1).to_json(),
              Rader::check_view_read(c.program).to_json())
        << c.name << " (peerset)";
    EXPECT_EQ(Rader::check_spbags(c.program, p1).to_json(),
              Rader::check_spbags(c.program).to_json())
        << c.name << " (sp-bags)";
    spec::NoSteal none;
    spec::StealAll all;
    for (const spec::StealSpec* s :
         {static_cast<const spec::StealSpec*>(&none),
          static_cast<const spec::StealSpec*>(&all)}) {
      EXPECT_EQ(Rader::check_determinacy(c.program, *s, p1).to_json(),
                Rader::check_determinacy(c.program, *s).to_json())
          << c.name << " (sp+ under " << s->describe() << ")";
    }
    const auto sampled = exhaustive(c, p1);
    const auto full = exhaustive(c);
    EXPECT_EQ(sampled.log.to_json(), full.log.to_json())
        << c.name << " (exhaustive)";
    EXPECT_EQ(sampled.spec_runs, full.spec_runs) << c.name;
  }
}

TEST(Sampling, SampledRunsAreDeterministicPerSeed) {
  // Sub-unit rate, byte-sized blocks so the litmus statics scatter across
  // blocks: two runs with one config must agree byte for byte; a different
  // seed must change SOMETHING across the corpus (it samples other blocks).
  const SamplingConfig cfg = config_for(0.5, 0xA5A5, /*block_bits=*/0);
  const SamplingConfig other = config_for(0.5, 0x5A5A, /*block_bits=*/0);
  bool seed_changed_something = false;
  for (const auto& c : litmus::all_cases()) {
    const std::string first = exhaustive(c, cfg).log.to_json();
    const std::string second = exhaustive(c, cfg).log.to_json();
    EXPECT_EQ(first, second) << c.name;
    seed_changed_something |= first != exhaustive(c, other).log.to_json();
  }
  EXPECT_TRUE(seed_changed_something)
      << "P=0.5 with byte blocks should drop different races per seed";
}

/// Frame-free race identities from a log, for subset comparisons.
std::set<std::string> race_identities(const RaceLog& log) {
  std::set<std::string> ids;
  for (const auto& r : log.determinacy_races()) {
    std::ostringstream key;
    key << "det " << r.addr << ' ' << static_cast<int>(r.current_kind) << ' '
        << r.prior_was_write << ' ' << r.current_label;
    ids.insert(key.str());
  }
  for (const auto& r : log.view_read_races()) {
    ids.insert("vr " + std::to_string(r.reducer) + ' ' + r.prior_label + ' ' +
               r.current_label);
  }
  return ids;
}

TEST(Sampling, RecallOnTheLitmusCorpusIsMonotoneInP) {
  // Nested sampled sets + deterministic everything-else ⇒ the race set at a
  // lower P is a subset of the race set at any higher P, case by case, and
  // P=1 recovers full precision exactly.
  const double rates[] = {0.05, 0.25, 0.5, 1.0};
  for (const auto& c : litmus::all_cases()) {
    std::set<std::string> prev;
    for (std::size_t i = 0; i < std::size(rates); ++i) {
      const auto cfg = config_for(rates[i], 0xF00D, /*block_bits=*/0);
      const auto got = race_identities(exhaustive(c, cfg).log);
      for (const auto& id : prev) {
        EXPECT_TRUE(got.count(id))
            << c.name << ": race found at P=" << rates[i - 1]
            << " lost at P=" << rates[i] << ": " << id;
      }
      prev = got;
    }
    const auto full = race_identities(exhaustive(c).log);
    EXPECT_EQ(prev, full) << c.name << ": P=1 must recover full precision";
  }
}

// ---- Fuzz corpus: the distilled adversarial programs through the wrapper ----

const char* kCorpusFiles[] = {
    "fig6_shadow_slot.rprog",
    "view_read_race.rprog",
    "reduce_vs_oblivious.rprog",
};

TEST(Sampling, RateOneReproducesFullPrecisionOnTheFuzzCorpus) {
  const SamplingConfig p1 = config_for(1.0, /*seed=*/31337);
  for (const char* name : kCorpusFiles) {
    std::string error;
    auto repro = dag::load_reproducer(
        std::string(RADER_FUZZ_CORPUS_DIR) + "/" + name, &error);
    ASSERT_TRUE(repro.has_value()) << name << ": " << error;
    auto steal_spec = spec::from_description(repro->spec_handle);
    ASSERT_NE(steal_spec, nullptr) << repro->spec_handle;
    dag::RandomProgram program(repro->tree, repro->params);
    const auto [pool_lo, pool_hi] = program.pool_range();

    const RaceLog full =
        Rader::check_determinacy([&] { program(); }, *steal_spec);
    const RaceLog sampled =
        Rader::check_determinacy([&] { program(); }, *steal_spec, p1);
    EXPECT_EQ(sampled.to_json(), full.to_json()) << name;
    EXPECT_EQ(fuzz::canonical_race_keys(sampled, pool_lo, pool_hi),
              fuzz::canonical_race_keys(full, pool_lo, pool_hi))
        << name;

    EXPECT_EQ(Rader::check_view_read([&] { program(); }, p1).to_json(),
              Rader::check_view_read([&] { program(); }).to_json())
        << name << " (peerset)";
  }
}

}  // namespace
}  // namespace rader
