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
  PeerSetDetector detector(&log);
  ParallelEngine engine(workers);
  engine.set_tool(&detector);
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

Rader::ExhaustiveResult Rader::check_exhaustive(
    const ProgramFactory& make_program, const SweepOptions& options,
    std::uint32_t k_cap, std::uint64_t depth_cap) {
  ExhaustiveResult result;
  // The Section-7 probe: one no-steal Peer-Set run, serially on the calling
  // thread and on its own instance, logs view-read races and learns K and D
  // (capped).  They size the O(KD + K³) family, with the no-steal spec
  // prepended (SP-bags coverage of the serial schedule).
  const auto probe_program = make_program();
  {
    prof::Phase probe("probe", metrics::Phase::kProbe);
    PeerSetDetector peerset(&result.log);
    spec::NoSteal no_steal;
    SpecSampler sampler(&peerset, options.sampling, no_steal.describe());
    result.probe_stats = run_serial(probe_program, sampler.tool(), &no_steal);
  }
  result.k = std::min<std::uint32_t>(result.probe_stats.max_sync_block, k_cap);
  result.depth =
      std::min<std::uint64_t>(result.probe_stats.max_spawn_depth, depth_cap);
  std::vector<std::unique_ptr<spec::StealSpec>> family;
  family.push_back(std::make_unique<spec::NoSteal>());
  {
    auto coverage = spec::full_coverage_family(result.k, result.depth);
    family.reserve(1 + coverage.size());
    for (auto& steal_spec : coverage) family.push_back(std::move(steal_spec));
  }
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
