// The serial reference for family sweeps, kept independent of the sweep:
// SP+ under each member in turn (Rader::check_determinacy), merged in family
// order.  Sweep tests compare sweep_family and check_exhaustive against it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/driver.hpp"

namespace rader::testing {

/// SP+ under every member of `family`, one run after another, merged in
/// family order.
inline RaceLog serial_family_log(
    FnView program,
    const std::vector<std::unique_ptr<spec::StealSpec>>& family,
    const SamplingConfig& sampling = {}) {
  RaceLog merged;
  for (const auto& steal_spec : family) {
    merged.merge(Rader::check_determinacy(program, *steal_spec, sampling));
  }
  return merged;
}

/// check_exhaustive, serially: the Peer-Set probe, then SP+ under the
/// no-steal spec and the O(KD + K³) family for the probed (capped) K and D.
inline Rader::ExhaustiveResult serial_exhaustive(
    FnView program, std::uint32_t k_cap = 16, std::uint64_t depth_cap = 64,
    const SamplingConfig& sampling = {}) {
  Rader::ExhaustiveResult result;
  result.log = Rader::check_view_read(program, sampling);
  result.probe_stats = run_serial(program);
  result.k = std::min(result.probe_stats.max_sync_block, k_cap);
  result.depth = std::min(result.probe_stats.max_spawn_depth, depth_cap);
  std::vector<std::unique_ptr<spec::StealSpec>> family;
  family.push_back(std::make_unique<spec::NoSteal>());
  for (auto& steal_spec : spec::full_coverage_family(result.k, result.depth)) {
    family.push_back(std::move(steal_spec));
  }
  result.log.merge(serial_family_log(program, family, sampling));
  result.spec_runs = family.size();
  return result;
}

}  // namespace rader::testing
