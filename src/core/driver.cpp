#include "core/driver.hpp"

#include <algorithm>

#include "sched/parallel_engine.hpp"
#include "support/metrics.hpp"
#include "support/profile.hpp"

namespace rader {

RaceLog Rader::check_view_read(FnView program,
                               const SamplingConfig& sampling) {
  RaceLog log;
  PeerSetDetector detector(&log);
  spec::NoSteal no_steal;
  SpecSampler sampler(&detector, sampling, no_steal.describe());
  run_serial(program, sampler.tool(), &no_steal);
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
  SpecSampler sampler(&detector, sampling, steal_spec.describe());
  {
    prof::Phase execute(nullptr, metrics::Phase::kExecute);
    run_serial(program, sampler.tool(), &steal_spec);
  }
  metrics::bump(metrics::Counter::kSpecRuns);
  log.stamp_found_under(steal_spec.describe());
  return log;
}

RaceLog Rader::check_spbags(FnView program, const SamplingConfig& sampling) {
  RaceLog log;
  SpBagsDetector detector(&log);
  spec::NoSteal no_steal;
  SpecSampler sampler(&detector, sampling, no_steal.describe());
  run_serial(program, sampler.tool(), &no_steal);
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

/// The Section-7 probe: one no-steal Peer-Set run logs view-read races into
/// `result` and learns K and D (capped).  Returns the O(KD + K³) family
/// they size, with the no-steal spec prepended (SP-bags coverage of the
/// serial schedule).
std::vector<std::unique_ptr<spec::StealSpec>> probe_family(
    FnView program, std::uint32_t k_cap, std::uint64_t depth_cap,
    const SamplingConfig& sampling, Rader::ExhaustiveResult* result) {
  {
    prof::Phase probe("probe", metrics::Phase::kProbe);
    PeerSetDetector peerset(&result->log);
    spec::NoSteal no_steal;
    SpecSampler sampler(&peerset, sampling, no_steal.describe());
    result->probe_stats = run_serial(program, sampler.tool(), &no_steal);
  }
  result->k =
      std::min<std::uint32_t>(result->probe_stats.max_sync_block, k_cap);
  result->depth =
      std::min<std::uint64_t>(result->probe_stats.max_spawn_depth, depth_cap);
  std::vector<std::unique_ptr<spec::StealSpec>> family;
  family.push_back(std::make_unique<spec::NoSteal>());
  auto coverage = spec::full_coverage_family(result->k, result->depth);
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
  const auto family =
      probe_family(program, k_cap, depth_cap, sampling, &result);
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
  // The probe runs serially on the calling thread, on its own instance.
  const auto probe_program = make_program();
  const auto family = probe_family(probe_program, k_cap, depth_cap,
                                   options.sampling, &result);
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
