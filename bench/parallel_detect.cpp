// Parallel detection speedup: wall-clock of Rader::check_parallel (Peer-Set
// running ON the work-stealing engine via shard replay) on a fan-out-heavy
// program at 1..8 workers.  The point of the tentpole: detection no longer
// serializes the computation — the replayer consumes a tiny event stream on
// worker 0 while the leaves' compute spreads across all cores, so detection
// wall-clock scales nearly like the uninstrumented run.
//
// Usage: parallel_detect [--scale=S] [--reps=N] [--check-ratio=R]
//                        [--json=FILE]
//   --check-ratio=R  exit nonzero unless the 4-worker speedup over 1 worker
//                    is >= R (only enforced when >= 4 hardware threads are
//                    available); CI uses --check-ratio=2.0.
//   --json=FILE      machine-readable results for trend tracking
//                    (scripts/nightly_bench.sh).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/driver.hpp"
#include "reducers/monoid.hpp"
#include "reducers/reducer.hpp"
#include "runtime/api.hpp"
#include "support/metrics.hpp"

namespace {

constexpr int kLeaves = 64;

std::uint64_t burn(std::uint64_t iters, std::uint64_t seed) {
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ull + 1;
  for (std::uint64_t i = 0; i < iters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

/// 64 spawned leaves, each a pure compute burn folded into one reducer;
/// disciplined (clean) so the detector's verdict is a fixed point and the
/// measured time is pure detection overhead plus compute.
void fanout_program(std::uint64_t leaf_iters) {
  rader::reducer<rader::monoid::op_add<long>> sum(rader::SrcTag{"sum"});
  for (int i = 0; i < kLeaves; ++i) {
    rader::spawn([&sum, i, leaf_iters] {
      sum += static_cast<long>(
          burn(leaf_iters, static_cast<std::uint64_t>(i)) & 0xff);
    });
  }
  rader::sync();
  volatile long v = sum.get_value(rader::SrcTag{"total"});
  (void)v;
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = rader::bench::parse_scale(argc, argv, 1.0);
  const int reps = rader::bench::parse_reps(argc, argv, 3);
  double check_ratio = 0.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--check-ratio=", 0) == 0) {
      check_ratio = std::stod(arg.substr(14));
    }
  }
  const auto leaf_iters = static_cast<std::uint64_t>(2.0e6 * scale);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::printf("parallel_detect: scale=%.3g reps=%d leaves=%d hw=%u\n", scale,
              reps, kLeaves, hw);
  std::printf("%8s %12s %9s\n", "workers", "detect(s)", "speedup");

  double t1 = 0.0;
  double speedup4 = 0.0;
  struct JsonRow {
    unsigned workers;
    double seconds, speedup;
  };
  std::vector<JsonRow> jrows;
  for (const unsigned workers : {1u, 2u, 4u, 8u}) {
    if (workers > 1 && workers > hw) {
      std::printf("%8u %12s %9s (skipped: > hardware threads)\n", workers,
                  "-", "-");
      continue;
    }
    const double t = rader::bench::time_best_of(reps, [&] {
      const rader::RaceLog log = rader::Rader::check_parallel(
          [&] { fanout_program(leaf_iters); }, workers);
      if (log.view_read_count() != 0) {
        std::fprintf(stderr, "!! unexpected view-read race reported\n");
        std::exit(2);
      }
    });
    if (workers == 1) t1 = t;
    const double speedup = t1 / t;
    if (workers == 4) speedup4 = speedup;
    jrows.push_back({workers, t, speedup});
    std::printf("%8u %12.4f %8.2fx\n", workers, t, speedup);
    std::fflush(stdout);
  }

  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) json_path = arg.substr(7);
  }
  if (!json_path.empty()) {
    FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(out, "{\n  \"bench\": \"parallel_detect\",\n"
                      "  \"scale\": %g,\n  \"reps\": %d,\n  \"hw\": %u,\n"
                      "  \"speedup4\": %.4f,\n  \"rows\": [\n",
                 scale, reps, hw, speedup4);
    for (std::size_t i = 0; i < jrows.size(); ++i) {
      std::fprintf(out,
                   "    {\"workers\": %u, \"seconds\": %.6f, "
                   "\"speedup\": %.4f}%s\n",
                   jrows[i].workers, jrows[i].seconds, jrows[i].speedup,
                   i + 1 < jrows.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (check_ratio > 0.0) {
    if (hw < 4) {
      std::printf("check-ratio: skipped (%u hardware threads < 4)\n", hw);
    } else if (speedup4 < check_ratio) {
      std::fprintf(stderr,
                   "FAIL: 4-worker detection speedup %.2fx < required %.2fx\n",
                   speedup4, check_ratio);
      return 1;
    } else {
      std::printf("check-ratio: ok (%.2fx >= %.2fx)\n", speedup4, check_ratio);
    }
  }
  return 0;
}
