// Parallel-engine speedup: the substrate sanity check.  The paper's
// benchmarks presume a working work-stealing runtime with reducers; this
// bench reports wall-clock and speedup of each benchmark on 1..P workers,
// verifying results stay deterministic.
#include <cstdio>
#include <thread>

#include "apps/workloads.hpp"
#include "bench_util.hpp"
#include "sched/parallel_engine.hpp"
#include "support/metrics.hpp"

int main(int argc, char** argv) {
  const double scale = rader::bench::parse_scale(argc, argv, 0.1);
  const int reps = rader::bench::parse_reps(argc, argv, 2);
  const unsigned max_workers =
      std::min(8u, std::max(2u, std::thread::hardware_concurrency()));
  std::printf("parallel_speedup: scale=%.3g reps=%d\n", scale, reps);
  std::printf("%-10s %10s", "benchmark", "serial(s)");
  for (unsigned w = 2; w <= max_workers; w *= 2) std::printf("   %2ux", w);
  std::printf("   verified\n");

  for (auto& w : rader::apps::make_paper_benchmarks(scale)) {
    const double t_serial = rader::bench::time_best_of(reps, [&] { w.run(); });
    std::printf("%-10s %10.3f", w.name.c_str(), t_serial);
    bool ok = w.verify();
    for (unsigned workers = 2; workers <= max_workers; workers *= 2) {
      rader::ParallelEngine engine(workers);
      const double t = rader::bench::time_best_of(reps, [&] {
        engine.run([&] { w.run(); });
      });
      ok = ok && w.verify();
      std::printf(" %6.2f", t_serial / t);
    }
    std::printf("   %s\n", ok ? "yes" : "NO!");
    std::fflush(stdout);
  }
  return 0;
}
