// Complexity-claim experiments (Theorems 1 and 5):
//   * Peer-Set runs in O(T α(x,x)): detector time per strand stays flat as
//     T grows;
//   * SP+ runs in O((T + Mτ) α(v,v)): time grows linearly in T, plus a term
//     linear in the number of simulated steals M times the reduce cost τ.
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "core/peerset.hpp"
#include "core/spplus.hpp"
#include "reducers/monoid.hpp"
#include "reducers/reducer.hpp"
#include "runtime/api.hpp"
#include "runtime/serial_engine.hpp"
#include "spec/steal_spec.hpp"
#include "support/metrics.hpp"

namespace {

// A tunable workload: `blocks` sync blocks of `width` spawned updaters,
// each doing `work` annotated accesses; reduce cost scales with `tau`.
struct PaddedView {
  std::vector<long> cells;
};

int g_tau = 1;

struct padded_monoid {
  using value_type = PaddedView;
  static PaddedView identity() {
    return PaddedView{std::vector<long>(static_cast<std::size_t>(g_tau), 0)};
  }
  static void reduce(PaddedView& l, PaddedView& r) {
    if (l.cells.size() < r.cells.size()) l.cells.resize(r.cells.size());
    for (std::size_t i = 0; i < r.cells.size(); ++i) l.cells[i] += r.cells[i];
  }
};

void workload(int blocks, int width, int work) {
  static long pool[64];
  rader::reducer<padded_monoid> red;
  for (int b = 0; b < blocks; ++b) {
    for (int s = 0; s < width; ++s) {
      rader::spawn([&red, work] {
        for (int i = 0; i < work; ++i) {
          rader::shadow_write(&pool[i & 63], sizeof(long));
          pool[i & 63] += 1;
        }
        red.update([](PaddedView& v) {
          rader::shadow_write(v.cells.data(), sizeof(long));
          v.cells[0] += 1;
        });
      });
    }
    rader::sync();
  }
}

double run_with(rader::Tool* tool, const rader::spec::StealSpec* steal_spec,
                int blocks, int width, int work) {
  return rader::bench::time_best_of(3, [&] {
    rader::SerialEngine engine(tool, steal_spec);
    engine.run([&] { workload(blocks, width, work); });
  });
}

}  // namespace

int main() {
  std::printf("detector_scaling\n");

  // Part 1: time vs. T (strand count), fixed steal count 0.
  std::printf("\n[1] linear scaling in T (Peer-Set and SP+, no steals)\n");
  std::printf("%8s %12s %12s %14s %14s\n", "blocks", "peerset(s)", "sp+(s)",
              "peerset ns/op", "sp+ ns/op");
  rader::spec::NoSteal none;
  for (const int blocks : {50, 100, 200, 400, 800}) {
    rader::RaceLog log1, log2;
    rader::PeerSetDetector peerset(&log1);
    rader::SpPlusDetector spplus(&log2);
    const double tp = run_with(&peerset, &none, blocks, 8, 20);
    const double ts = run_with(&spplus, &none, blocks, 8, 20);
    const double ops = static_cast<double>(blocks) * 8 * 21;
    std::printf("%8d %12.4f %12.4f %14.1f %14.1f\n", blocks, tp, ts,
                tp / ops * 1e9, ts / ops * 1e9);
  }

  // Part 2: time vs. M (steal count) at fixed T.
  std::printf("\n[2] SP+ cost of simulated steals (fixed T, growing M)\n");
  std::printf("%10s %10s %12s\n", "steal p", "steals", "sp+(s)");
  for (const double p : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    rader::spec::BernoulliSteal spec(1, p);
    rader::RaceLog log;
    rader::SpPlusDetector spplus(&log);
    rader::SerialEngine probe(nullptr, &spec);
    probe.run([] { workload(200, 8, 20); });
    const double t = run_with(&spplus, &spec, 200, 8, 20);
    std::printf("%10.2f %10llu %12.4f\n", p,
                static_cast<unsigned long long>(probe.stats().steals), t);
  }

  // Part 3: time vs. τ (reduce cost) at fixed T and M.
  std::printf("\n[3] SP+ cost of reduce operations (fixed T and M, growing "
              "tau)\n");
  std::printf("%8s %12s\n", "tau", "sp+(s)");
  rader::spec::StealAll all;
  for (const int tau : {1, 64, 512, 4096}) {
    g_tau = tau;
    rader::RaceLog log;
    rader::SpPlusDetector spplus(&log);
    const double t = run_with(&spplus, &all, 100, 8, 5);
    std::printf("%8d %12.4f\n", tau, t);
  }
  g_tau = 1;

  std::printf("\n(expected shapes: [1] flat ns/op — the α factor; [2] time\n"
              " grows with M; [3] time grows with tau — the +Mτ term of\n"
              " Theorem 5.)\n");
  return 0;
}
