// Baseline ablation: SP-bags (disjoint-set bags, the paper's foundation) vs
// SP+ (SP-bags + view tracking) on the six benchmarks.
//
// SP+ adds view bookkeeping on top of SP-bags; this harness measures what
// that costs on real access streams.
#include <cstdio>

#include "apps/workloads.hpp"
#include "bench_util.hpp"
#include "core/spbags.hpp"

int main(int argc, char** argv) {
  using namespace rader;
  const double scale = bench::parse_scale(argc, argv, 0.05);
  const int reps = bench::parse_reps(argc, argv, 2);
  std::printf("baseline_compare: scale=%.3g reps=%d\n", scale, reps);
  std::printf("%-10s %12s %12s %12s\n", "benchmark", "none(s)", "spbags",
              "sp+ (x over none)");

  spec::NoSteal none;
  for (auto& w : apps::make_paper_benchmarks(scale)) {
    const double t_none = bench::time_config(w, nullptr, &none, reps);

    RaceLog bags_log;
    SpBagsDetector bags(&bags_log);
    const double t_bags = bench::time_config(w, &bags, &none, reps);

    RaceLog plus_log;
    SpPlusDetector plus(&plus_log);
    const double t_plus = bench::time_config(w, &plus, &none, reps);

    std::printf("%-10s %12.4f %9.2fx %9.2fx\n", w.name.c_str(), t_none,
                t_bags / t_none, t_plus / t_none);
  }
  std::printf(
      "\n(both run the no-steal serial schedule; SP-bags is the\n"
      " reducer-oblivious baseline, SP+ is the paper's detector.)\n");
  return 0;
}
