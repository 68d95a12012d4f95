// Figure 7: "Rader's overhead over running 6 benchmarks without
// instrumentation."  One row per benchmark, four detector configurations,
// overheads relative to the uninstrumented serial run.
//
// Also measures the observability layer's emission overhead: the same SP+ /
// no-steals detection run with and without an installed metrics::Registry
// (support/metrics.hpp).  The budget is <= 5% (geomean): bump() must stay a
// thread-local load plus one branch.
//
// Finally guards the dormant hooks.  Every sink lives in one constinit
// thread-local, the observability context (support/context.hpp), and each
// hook reads one field of it: with that sink off the hook is a
// thread-local load plus a not-taken branch.  Tracing (support/trace.hpp)
// is off by default; the guard measures a dormant emit() directly, counts
// the events each workload would emit, and bounds the implied slowdown
// versus a build with no hooks at all.  Budget: <= 1.02x geomean.
//
// The same guard covers the other dormant hooks: histogram record() and
// gauge_add() with no registry installed, and prof::Phase with no profiler
// installed.  Each one's per-call cost is measured separately and, charged
// per instrumented event (a deliberate overestimate: gauges and phases fire
// orders of magnitude less often than accesses), bounded by the same
// <= 1.02x geomean budget.
//
// Usage: fig7_overhead [--scale=S] [--reps=N] [--json=FILE]
//   S scales input sizes toward the paper's (default keeps CI fast).
//   --json=FILE appends machine-readable results for trend tracking
//   (scripts/nightly_bench.sh).
#include <cstdio>

#include "bench_util.hpp"
#include "support/metrics.hpp"
#include "support/profile.hpp"
#include "support/trace.hpp"

namespace {

/// SP+ / no-steals with a metrics registry installed for the whole run.
double time_spplus_with_metrics(rader::apps::Workload& w, int reps) {
  rader::spec::NoSteal none;
  rader::RaceLog log;
  rader::SpPlusDetector spplus(&log);
  rader::metrics::Registry reg;
  rader::metrics::Scope scope(&reg);
  return rader::bench::time_config(w, &spplus, &none, reps);
}

double time_spplus_without_metrics(rader::apps::Workload& w, int reps) {
  rader::spec::NoSteal none;
  rader::RaceLog log;
  rader::SpPlusDetector spplus(&log);
  return rader::bench::time_config(w, &spplus, &none, reps);
}

/// Per-call cost of a dormant trace::emit() (tracing off): a thread-local
/// load and a not-taken branch.  The barrier keeps the compiler from
/// hoisting the TL load out of the loop or deleting the calls outright.
double dormant_emit_ns() {
  constexpr std::uint64_t kIters = 1 << 24;
  rader::metrics::Stopwatch sw;
  for (std::uint64_t i = 0; i < kIters; ++i) {
    rader::trace::emit(rader::trace::EventKind::kFrameEnter,
                       rader::FrameId{0}, i);
    asm volatile("" ::: "memory");
  }
  return static_cast<double>(sw.nanos()) / static_cast<double>(kIters);
}

/// Per-call cost of a dormant metrics::record() (no registry installed).
double dormant_record_ns() {
  constexpr std::uint64_t kIters = 1 << 24;
  rader::metrics::Stopwatch sw;
  for (std::uint64_t i = 0; i < kIters; ++i) {
    rader::metrics::record(rader::metrics::Histogram::kAccessBytes, i);
    asm volatile("" ::: "memory");
  }
  return static_cast<double>(sw.nanos()) / static_cast<double>(kIters);
}

/// Per-call cost of a dormant metrics::gauge_add() (no registry installed).
double dormant_gauge_ns() {
  constexpr std::uint64_t kIters = 1 << 24;
  rader::metrics::Stopwatch sw;
  for (std::uint64_t i = 0; i < kIters; ++i) {
    rader::metrics::gauge_add(rader::metrics::Gauge::kDequeSize,
                              static_cast<std::int64_t>(i & 1));
    asm volatile("" ::: "memory");
  }
  return static_cast<double>(sw.nanos()) / static_cast<double>(kIters);
}

/// Per-call cost of a dormant prof::Phase (no profiler installed): the
/// constructor's thread-local load and the destructor's not-taken branch.
double dormant_phase_ns() {
  constexpr std::uint64_t kIters = 1 << 24;
  rader::metrics::Stopwatch sw;
  for (std::uint64_t i = 0; i < kIters; ++i) {
    rader::prof::Phase phase("bench-dormant");
    asm volatile("" ::: "memory");
  }
  return static_cast<double>(sw.nanos()) / static_cast<double>(kIters);
}

/// Events the SP+ / no-steals run of `w` would emit with tracing on
/// (recorded + dropped: the ring may wrap, the hooks still fired).
std::uint64_t traced_event_count(rader::apps::Workload& w) {
  rader::trace::Session session;
  rader::TraceScope scope(&session, w.name);
  rader::spec::NoSteal none;
  rader::RaceLog log;
  rader::SpPlusDetector spplus(&log);
  rader::SerialEngine engine(&spplus, &none);
  engine.run([&] { w.run(); });
  return session.total_recorded();
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = rader::bench::parse_scale(argc, argv, 0.05);
  const int reps = rader::bench::parse_reps(argc, argv, 2);
  std::printf("fig7_overhead: scale=%.3g reps=%d\n", scale, reps);

  std::vector<rader::bench::Row> rows;
  std::vector<double> metrics_ratios;
  std::vector<std::string> metrics_names;
  for (auto& w : rader::apps::make_paper_benchmarks(scale)) {
    std::printf("  measuring %-10s (%s)...\n", w.name.c_str(),
                w.input_desc.c_str());
    std::fflush(stdout);
    rows.push_back(rader::bench::measure_workload(w, reps));
    const double off = time_spplus_without_metrics(w, reps);
    const double on = time_spplus_with_metrics(w, reps);
    metrics_ratios.push_back(on / off);
    metrics_names.push_back(w.name);
  }
  rader::bench::print_table(
      "Figure 7 — overhead over NO INSTRUMENTATION", "no instrumentation",
      rows, [](const rader::bench::Row& r) { return r.t_none; });

  std::printf("\nmetrics-emission overhead (SP+ no-steals, registry "
              "installed vs not):\n");
  for (std::size_t i = 0; i < metrics_ratios.size(); ++i) {
    std::printf("  %-10s %.3fx\n", metrics_names[i].c_str(),
                metrics_ratios[i]);
  }
  const double metrics_geomean = rader::bench::geomean(metrics_ratios);
  std::printf("  %-10s %.3fx  (budget: <= 1.05)\n", "geomean",
              metrics_geomean);

  // Tracing-disabled guard: dormant emit() cost times the events each
  // workload would emit, as a fraction of the SP+ / no-steals runtime.
  const double emit_ns = dormant_emit_ns();
  std::printf("\ntracing-disabled overhead (dormant emit: %.2f ns/event):\n",
              emit_ns);
  std::vector<double> trace_ratios;
  std::vector<std::uint64_t> event_counts;
  auto fresh = rader::apps::make_paper_benchmarks(scale);
  for (std::size_t i = 0; i < rows.size() && i < fresh.size(); ++i) {
    const std::uint64_t events = traced_event_count(fresh[i]);
    event_counts.push_back(events);
    const double hook_seconds = static_cast<double>(events) * emit_ns * 1e-9;
    const double ratio = 1.0 + hook_seconds / rows[i].t_nosteal;
    trace_ratios.push_back(ratio);
    std::printf("  %-10s %12llu events  %.4fx\n", rows[i].name.c_str(),
                static_cast<unsigned long long>(events), ratio);
  }
  const double trace_geomean = rader::bench::geomean(trace_ratios);
  std::printf("  %-10s %.4fx  (budget: <= 1.02)\n", "geomean", trace_geomean);
  if (trace_geomean > 1.02) {
    std::fprintf(stderr, "!! tracing-disabled overhead %.4fx exceeds the "
                 "1.02x geomean budget\n", trace_geomean);
    return 1;
  }

  // Observability-dormant guard: histogram record, gauge add, and prof phase
  // hooks with no consumer installed, each charged once per instrumented
  // event (a deliberate overestimate — gauge and phase sites fire far less
  // often than access sites) against the SP+ / no-steals runtime.
  const double record_ns = dormant_record_ns();
  const double gauge_ns = dormant_gauge_ns();
  const double phase_ns = dormant_phase_ns();
  const double obs_ns = record_ns + gauge_ns + phase_ns;
  std::printf("\nobservability-dormant overhead (record %.2f + gauge %.2f + "
              "phase %.2f = %.2f ns/event):\n",
              record_ns, gauge_ns, phase_ns, obs_ns);
  std::vector<double> obs_ratios;
  for (std::size_t i = 0; i < rows.size() && i < event_counts.size(); ++i) {
    const double hook_seconds =
        static_cast<double>(event_counts[i]) * obs_ns * 1e-9;
    const double ratio = 1.0 + hook_seconds / rows[i].t_nosteal;
    obs_ratios.push_back(ratio);
    std::printf("  %-10s %12llu events  %.4fx\n", rows[i].name.c_str(),
                static_cast<unsigned long long>(event_counts[i]), ratio);
  }
  const double obs_geomean = rader::bench::geomean(obs_ratios);
  std::printf("  %-10s %.4fx  (budget: <= 1.02)\n", "geomean", obs_geomean);
  if (obs_geomean > 1.02) {
    std::fprintf(stderr, "!! observability-dormant overhead %.4fx exceeds "
                 "the 1.02x geomean budget\n", obs_geomean);
    return 1;
  }

  std::printf("\nabsolute uninstrumented times:\n");
  for (const auto& r : rows) {
    std::printf("  %-10s %8.3fs  (K=%u, D=%llu, %llu spawns)\n",
                r.name.c_str(), r.t_none, r.probe.max_sync_block,
                static_cast<unsigned long long>(r.probe.max_spawn_depth),
                static_cast<unsigned long long>(r.probe.spawns));
    std::printf("             view churn under check-reductions: %llu "
                "steals, %llu identities, %llu user reduces\n",
                static_cast<unsigned long long>(r.reduce_probe.steals),
                static_cast<unsigned long long>(r.reduce_probe.identities),
                static_cast<unsigned long long>(r.reduce_probe.user_reduces));
  }

  const std::string json_path = rader::bench::parse_arg(argc, argv, "json");
  if (!json_path.empty()) {
    FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(out, "{\n  \"bench\": \"fig7_overhead\",\n"
                      "  \"scale\": %g,\n  \"reps\": %d,\n"
                      "  \"metrics_geomean\": %.4f,\n"
                      "  \"trace_dormant_geomean\": %.4f,\n"
                      "  \"observability_dormant_geomean\": %.4f,\n"
                      "  \"rows\": [\n",
                 scale, reps, metrics_geomean, trace_geomean, obs_geomean);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& r = rows[i];
      std::fprintf(out,
                   "    {\"name\": \"%s\", \"t_none\": %.6f, "
                   "\"t_peerset\": %.6f, \"t_nosteal\": %.6f, "
                   "\"t_updates\": %.6f, \"t_reduce\": %.6f, "
                   "\"overhead_nosteal\": %.4f}%s\n",
                   r.name.c_str(), r.t_none, r.t_peerset, r.t_nosteal,
                   r.t_updates, r.t_reduce,
                   r.t_none > 0 ? r.t_nosteal / r.t_none : 0.0,
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
