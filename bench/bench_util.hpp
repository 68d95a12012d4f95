// Shared harness code for the table benchmarks (Figures 7 and 8).
//
// Each benchmark runs under the serial engine in the paper's five
// configurations:
//   none         — no instrumentation (tool = nullptr): Figure 7's baseline;
//   empty        — identical instrumentation, no-op tool: Figure 8's baseline;
//   peerset      — "Check view-read race";
//   sp+ nosteal  — "No steals";
//   sp+ updates  — "Check updates" (steals at half the max continuation
//                  depth, per Section 8);
//   sp+ reduce   — "Check reductions" (randomly chosen triple per sync
//                  block, per Section 8).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "apps/workloads.hpp"
#include "core/peerset.hpp"
#include "core/spplus.hpp"
#include "runtime/serial_engine.hpp"
#include "spec/steal_spec.hpp"
#include "support/common.hpp"
#include "support/metrics.hpp"
#include "tool/tool.hpp"

namespace rader::bench {

struct Row {
  std::string name;
  std::string input;
  std::string description;
  double t_none = 0;      // no instrumentation
  double t_empty = 0;     // empty tool
  double t_peerset = 0;   // Peer-Set
  double t_nosteal = 0;   // SP+ / no steals
  double t_updates = 0;   // SP+ / check updates
  double t_reduce = 0;    // SP+ / check reductions
  SerialEngine::Stats probe;
  SerialEngine::Stats reduce_probe;  // stats under the check-reductions spec
};

/// Run `fn` `reps` times and return the *minimum* wall-clock seconds of a
/// single run.  Minimum-of-N is the standard noise-robust estimator for
/// deterministic CPU-bound workloads.
inline double time_best_of(int reps, const std::function<void()>& fn) {
  RADER_CHECK(reps > 0);
  double best = 0.0;
  for (int i = 0; i < reps; ++i) {
    metrics::Stopwatch t;
    fn();
    const double s = t.seconds();
    best = (i == 0) ? s : std::min(best, s);
  }
  return best;
}

inline double time_config(apps::Workload& w, Tool* tool,
                          const spec::StealSpec* steal_spec, int reps) {
  return time_best_of(reps, [&] {
    SerialEngine engine(tool, steal_spec);
    engine.run([&] { w.run(); });
  });
}

inline Row measure_workload(apps::Workload& w, int reps) {
  Row row;
  row.name = w.name;
  row.input = w.input_desc;
  row.description = w.description;

  spec::NoSteal none;

  // Probe: learn K and D for the update/reduction specs.
  {
    SerialEngine engine(nullptr, &none);
    engine.run([&] { w.run(); });
    row.probe = engine.stats();
    if (!w.verify()) {
      std::fprintf(stderr, "!! %s failed verification\n", w.name.c_str());
    }
  }
  const std::uint32_t k = std::max<std::uint32_t>(2, row.probe.max_sync_block);
  spec::DepthSteal depth_spec(std::max<std::uint64_t>(1, k / 2));
  spec::RandomTripleSteal reduce_spec(/*seed=*/0x5eed, k);

  row.t_none = time_config(w, nullptr, &none, reps);
  {
    EmptyTool empty;
    row.t_empty = time_config(w, &empty, &none, reps);
  }
  {
    RaceLog log;
    PeerSetDetector peerset(&log);
    row.t_peerset = time_config(w, &peerset, &none, reps);
  }
  {
    RaceLog log;
    SpPlusDetector spplus(&log);
    row.t_nosteal = time_config(w, &spplus, &none, reps);
  }
  {
    RaceLog log;
    SpPlusDetector spplus(&log);
    row.t_updates = time_config(w, &spplus, &depth_spec, reps);
  }
  {
    RaceLog log;
    SpPlusDetector spplus(&log);
    row.t_reduce = time_config(w, &spplus, &reduce_spec, reps);
  }
  {
    // View-churn telemetry under the check-reductions schedule.
    SerialEngine engine(nullptr, &reduce_spec);
    engine.run([&] { w.run(); });
    row.reduce_probe = engine.stats();
  }
  return row;
}

inline double geomean(const std::vector<double>& xs) {
  double log_sum = 0;
  for (const double x : xs) log_sum += std::log(x);
  return xs.empty() ? 0.0 : std::exp(log_sum / static_cast<double>(xs.size()));
}

/// Print a Figure 7/8-style table: overheads of the four detector
/// configurations over `baseline(row)`.
template <typename BaselineFn>
void print_table(const char* title, const char* baseline_name,
                 const std::vector<Row>& rows, BaselineFn baseline) {
  std::printf("\n%s\n", title);
  std::printf("%-10s %-26s %-28s %10s %9s %8s %10s\n", "Benchmark",
              "Input size", "Description", "Check v-r", "No steals",
              "Updates", "Reductions");
  std::vector<double> g_peerset, g_nosteal, g_updates, g_reduce;
  for (const Row& r : rows) {
    const double base = baseline(r);
    const double o_peerset = r.t_peerset / base;
    const double o_nosteal = r.t_nosteal / base;
    const double o_updates = r.t_updates / base;
    const double o_reduce = r.t_reduce / base;
    std::printf("%-10s %-26s %-28s %10.2f %9.2f %8.2f %10.2f\n",
                r.name.c_str(), r.input.c_str(), r.description.c_str(),
                o_peerset, o_nosteal, o_updates, o_reduce);
    g_peerset.push_back(o_peerset);
    g_nosteal.push_back(o_nosteal);
    g_updates.push_back(o_updates);
    g_reduce.push_back(o_reduce);
  }
  std::printf("%-10s %-26s %-28s %10.2f %9.2f %8.2f %10.2f\n", "geomean", "",
              "", geomean(g_peerset), geomean(g_nosteal), geomean(g_updates),
              geomean(g_reduce));
  std::printf("(overheads relative to %s; paper: Peer-Set geomean 2.32, SP+ "
              "16.76 over no instrumentation;\n 1.84 and 7.27 over an empty "
              "tool)\n",
              baseline_name);
}

inline double parse_scale(int argc, char** argv, double fallback) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--scale=", 0) == 0) return std::stod(arg.substr(8));
  }
  return fallback;
}

inline int parse_reps(int argc, char** argv, int fallback) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--reps=", 0) == 0) return std::stoi(arg.substr(7));
  }
  return fallback;
}

/// Value of `--key=VALUE`, or "" when absent.
inline std::string parse_arg(int argc, char** argv, const std::string& key) {
  const std::string prefix = "--" + key + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  }
  return "";
}

}  // namespace rader::bench
