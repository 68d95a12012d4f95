#include "core/driver.hpp"

#include <algorithm>

#include "sched/parallel_engine.hpp"
#include "support/metrics.hpp"
#include "support/profile.hpp"

namespace rader {

namespace {

/// Wrap `detector` when sampling is on, seeding from the spec description
/// so every entry point derives sample sets the same way the sweep does.
std::unique_ptr<SamplingTool> maybe_sampler(Tool* detector,
                                            const SamplingConfig& sampling,
                                            const std::string& spec_describe) {
  if (!sampling.enabled) return nullptr;
  SamplingConfig cfg = sampling;
  cfg.seed = sampling_seed_for_spec(cfg.seed, spec_describe);
  return std::make_unique<SamplingTool>(detector, cfg);
}

}  // namespace

RaceLog Rader::check_view_read(FnView program,
                               const SamplingConfig& sampling) {
  RaceLog log;
  PeerSetDetector detector(&log);
  spec::NoSteal no_steal;
  auto sampler = maybe_sampler(&detector, sampling, no_steal.describe());
  run_serial(program, sampler ? (Tool*)sampler.get() : &detector, &no_steal);
  return log;
}

RaceLog Rader::check_parallel(FnView program, unsigned workers) {
  RaceLog log;
  ParallelPeerSet tool(&log);
  ParallelEngine engine(workers);
  engine.set_tool(&tool);
  {
    prof::Phase execute(nullptr, metrics::Phase::kExecute);
    engine.run(program);
  }
  return log;
}

RaceLog Rader::check_determinacy(FnView program,
                                 const spec::StealSpec& steal_spec,
                                 const SamplingConfig& sampling) {
  RaceLog log;
  SpPlusDetector detector(&log);
  auto sampler = maybe_sampler(&detector, sampling, steal_spec.describe());
  {
    prof::Phase execute(nullptr, metrics::Phase::kExecute);
    run_serial(program, sampler ? (Tool*)sampler.get() : &detector,
               &steal_spec);
  }
  metrics::bump(metrics::Counter::kSpecRuns);
  log.stamp_found_under(steal_spec.describe());
  return log;
}

RaceLog Rader::check_spbags(FnView program, const SamplingConfig& sampling) {
  RaceLog log;
  SpBagsDetector detector(&log);
  spec::NoSteal no_steal;
  auto sampler = maybe_sampler(&detector, sampling, no_steal.describe());
  run_serial(program, sampler ? (Tool*)sampler.get() : &detector, &no_steal);
  return log;
}

RaceLog Rader::check_with_family(
    FnView program,
    const std::vector<std::unique_ptr<spec::StealSpec>>& family,
    const SamplingConfig& sampling) {
  RaceLog merged;
  for (const auto& steal_spec : family) {
    merged.merge(check_determinacy(program, *steal_spec, sampling));
  }
  return merged;
}

SweepResult Rader::check_with_family(
    const ProgramFactory& make_program,
    const std::vector<std::unique_ptr<spec::StealSpec>>& family,
    const SweepOptions& options) {
  return sweep_family(make_program, family, options);
}

namespace {

/// The Section-7 coverage family with the no-steal spec prepended (SP-bags
/// coverage of the serial schedule), sized by the probe run's K and D.
std::vector<std::unique_ptr<spec::StealSpec>> exhaustive_family(
    std::uint32_t k, std::uint64_t depth) {
  std::vector<std::unique_ptr<spec::StealSpec>> family;
  family.push_back(std::make_unique<spec::NoSteal>());
  auto coverage = spec::full_coverage_family(k, depth);
  family.reserve(1 + coverage.size());
  for (auto& steal_spec : coverage) family.push_back(std::move(steal_spec));
  return family;
}

}  // namespace

Rader::ExhaustiveResult Rader::check_exhaustive(FnView program,
                                                std::uint32_t k_cap,
                                                std::uint64_t depth_cap,
                                                const SamplingConfig& sampling) {
  ExhaustiveResult result;

  // Probe run: learn K and D (and find view-read races with Peer-Set).
  {
    prof::Phase probe("probe", metrics::Phase::kProbe);
    PeerSetDetector peerset(&result.log);
    spec::NoSteal no_steal;
    auto sampler = maybe_sampler(&peerset, sampling, no_steal.describe());
    result.probe_stats = run_serial(
        program, sampler ? (Tool*)sampler.get() : &peerset, &no_steal);
  }
  result.k = std::min<std::uint32_t>(result.probe_stats.max_sync_block, k_cap);
  result.depth =
      std::min<std::uint64_t>(result.probe_stats.max_spawn_depth, depth_cap);

  // No-steal spec + the O(KD + K³) family of Section 7.
  const auto family = exhaustive_family(result.k, result.depth);
  for (const auto& steal_spec : family) {
    result.log.merge(check_determinacy(program, *steal_spec, sampling));
    ++result.spec_runs;
  }
  return result;
}

Rader::ExhaustiveResult Rader::check_exhaustive(
    const ProgramFactory& make_program, const SweepOptions& options,
    std::uint32_t k_cap, std::uint64_t depth_cap) {
  ExhaustiveResult result;

  // Serial probe on the calling thread: learn K and D, catch view-read
  // races with Peer-Set.
  auto probe_program = make_program();
  {
    prof::Phase probe("probe", metrics::Phase::kProbe);
    PeerSetDetector peerset(&result.log);
    spec::NoSteal no_steal;
    auto sampler =
        maybe_sampler(&peerset, options.sampling, no_steal.describe());
    result.probe_stats = run_serial(
        probe_program, sampler ? (Tool*)sampler.get() : &peerset, &no_steal);
  }
  result.k = std::min<std::uint32_t>(result.probe_stats.max_sync_block, k_cap);
  result.depth =
      std::min<std::uint64_t>(result.probe_stats.max_spawn_depth, depth_cap);

  const auto family = exhaustive_family(result.k, result.depth);
  if (options.stop_after_first_race && result.log.any()) {
    result.specs_skipped = family.size();
    return result;
  }
  SweepResult sweep = sweep_family(make_program, family, options);
  result.log.merge(sweep.log);
  result.spec_runs = sweep.spec_runs;
  result.specs_skipped = sweep.specs_skipped;
  result.failures = std::move(sweep.failures);
  return result;
}

}  // namespace rader
