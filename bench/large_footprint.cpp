// Production-footprint benchmark: multi-MB shadow workloads and the
// O(1)-samples mode, with the exit-code gates scripts/check.sh --full and
// the nightly-bench job enforce.
//
// Three experiments:
//
//  1. CHECKPOINTED SWEEP (--check-ratio=R gates legacy/packed >= R).
//     The production shape of the prefix-sharing sweep: a checkpoint
//     shadowing a multi-MB footprint is forked once per steal spec, the
//     spec replays a short suffix (one page of detector-shaped accesses:
//     read writer, read reader, record one), and the fork is dropped.
//     The legacy baseline (a bench-local copy of the paired-map shadow
//     PackedShadow replaced, below) pays an unordered_map node copy per
//     page on every fork and another map teardown on every drop —
//     O(footprint) per spec; the packed encoding's two-level CoW forks
//     copy only the shard tables and bump chunk refcounts — O(#chunks) per
//     spec.  This is exactly the cost the >= 3x gate is about: the
//     per-spec overhead of carrying a production-sized shadow through a
//     sweep.
//
//     A steady-state page-hopping sweep over the same footprint is also
//     reported (ungated): single-pass random access is bounded by the
//     slot cache line itself, so both encodings sit within ~2x there —
//     the directory wins show up in fork/clear churn, not steady state.
//
//  2. APP FOOTPRINTS (reported, not gated — annotation-dominated apps
//     like pbfs measure instrumentation cost, not shadow cost): pbfs and
//     collision at multi-MB footprints under no instrumentation, full
//     SP+, and sampled SP+ at --sample-rate.
//
//  3. SAMPLING OVERHEAD (--check-sampling-overhead=X gates geomean <= X).
//     Sampled SP+ at P (default 0.01) versus UNINSTRUMENTED, geomean over
//     collision and a bench-local multi-MB compute kernel (real work per
//     annotated access, the workload class the O(1)-samples theory
//     targets).  pbfs is reported above but excluded from the gate: its
//     runtime is annotation calls, so even a perfect sampler cannot reach
//     1.10x there.
//
// usage: large_footprint [--reps=N] [--mb=M] [--sample-rate=P]
//                        [--json=FILE] [--check-ratio=R]
//                        [--check-sampling-overhead=X]
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "apps/workloads.hpp"
#include "bench_util.hpp"
#include "core/race_report.hpp"
#include "core/spplus.hpp"
#include "runtime/api.hpp"
#include "runtime/serial_engine.hpp"
#include "shadow/access_shadow.hpp"
#include "spec/steal_spec.hpp"
#include "support/hash.hpp"
#include "support/metrics.hpp"
#include "tool/sampling.hpp"

namespace {

using rader::SamplingConfig;
using rader::SamplingTool;
using rader::SerialEngine;
using rader::SpPlusDetector;
using rader::Tool;
using rader::shadow::AccessShadow;

// ---- Legacy baseline: the paired-map shadow PackedShadow replaced ----------

// One logical shadow space as the detectors first kept it: a map from page
// key to a shared page of 4096 uint32 payloads (one per granule), a
// one-page read lookaside, and a write lookaside that only ever holds a
// page proven unshared.  fork() shares every page and drops the write
// lookaside; the first write to a shared page copies it.
class MapSpace {
 public:
  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};

  std::uint32_t get(std::uintptr_t g) {
    const Page* page = find_page(g >> kPageBits);
    return page != nullptr ? page->cells[g & (kPageSize - 1)] : kEmpty;
  }

  void set(std::uintptr_t g, std::uint32_t v) {
    writable_page(g >> kPageBits)->cells[g & (kPageSize - 1)] = v;
  }

  MapSpace fork() const {
    wcached_key_ = kNoKey;
    MapSpace f;
    f.pages_ = pages_;
    return f;
  }

  void clear() {
    pages_.clear();
    cached_key_ = wcached_key_ = kNoKey;
  }

 private:
  static constexpr int kPageBits = 12;
  static constexpr std::size_t kPageSize = std::size_t{1} << kPageBits;
  static constexpr std::uintptr_t kNoKey = ~std::uintptr_t{0};
  struct Page {
    std::uint32_t cells[kPageSize];
  };

  // Both lookups stay out of line, as they were in the library, so the
  // baseline pays the original's call per access.
  [[gnu::noinline]] const Page* find_page(std::uintptr_t key) {
    if (key == cached_key_) return cached_page_;
    const auto it = pages_.find(key);
    if (it == pages_.end()) return nullptr;
    cached_key_ = key;
    cached_page_ = it->second.get();
    return cached_page_;
  }

  [[gnu::noinline]] Page* writable_page(std::uintptr_t key) {
    if (key == wcached_key_) return wcached_page_;
    auto it = pages_.find(key);
    if (it == pages_.end()) {
      auto page = std::make_shared<Page>();
      std::memset(page->cells, 0xff, sizeof(page->cells));  // all kEmpty
      it = pages_.emplace(key, std::move(page)).first;
    } else if (it->second.use_count() > 1) {
      it->second = std::make_shared<Page>(*it->second);  // un-share
    }
    cached_key_ = wcached_key_ = key;
    cached_page_ = wcached_page_ = it->second.get();
    return wcached_page_;
  }

  std::unordered_map<std::uintptr_t, std::shared_ptr<Page>> pages_;
  std::uintptr_t cached_key_ = kNoKey;
  const Page* cached_page_ = nullptr;
  mutable std::uintptr_t wcached_key_ = kNoKey;
  Page* wcached_page_ = nullptr;
};

// The reader and writer spaces as a pair, with AccessShadow's interface.
class LegacyShadow {
 public:
  static constexpr std::uint32_t kEmpty = MapSpace::kEmpty;

  std::uint32_t reader(std::uintptr_t g) { return reader_.get(g); }
  std::uint32_t writer(std::uintptr_t g) { return writer_.get(g); }
  void set_reader(std::uintptr_t g, std::uint32_t v) { reader_.set(g, v); }
  void set_writer(std::uintptr_t g, std::uint32_t v) { writer_.set(g, v); }

  LegacyShadow fork() const {
    LegacyShadow f;
    f.reader_ = reader_.fork();
    f.writer_ = writer_.fork();
    return f;
  }

  void clear() {
    reader_.clear();
    writer_.clear();
  }

 private:
  MapSpace reader_;
  MapSpace writer_;
};

// ---- 1. Checkpointed sweep + steady-state sweep ----------------------------

// The detectors' access shape: check both fields, record one — alternating
// reads and writes so BOTH logical spaces populate (one packed slot; two
// separate legacy pages).
template <class Shadow>
inline void detector_shaped_op(Shadow& s, std::uintptr_t g,
                               std::uint32_t id) {
  const bool writer_empty = s.writer(g) == Shadow::kEmpty;
  const bool reader_empty = s.reader(g) == Shadow::kEmpty;
  if (id & 1) {
    if (reader_empty || !writer_empty) s.set_reader(g, id & 0xFFFF);
  } else {
    if (writer_empty || !reader_empty) s.set_writer(g, id & 0xFFFF);
  }
}

constexpr std::uintptr_t kBase = std::uintptr_t{1} << 30;

// Per-spec cost of the prefix sweep's checkpoint cycle: fork the
// footprint-sized base shadow, replay a one-page suffix, drop the fork.
template <class Shadow>
double time_checkpoint_sweep(std::size_t granules, int specs,
                             std::size_t window, int reps) {
  Shadow base;
  for (std::size_t i = 0; i < granules; ++i) {
    detector_shaped_op(base, kBase + i, static_cast<std::uint32_t>(i));
  }
  return rader::bench::time_best_of(reps, [&] {
    std::uint32_t id = 1;
    for (int s = 0; s < specs; ++s) {
      Shadow fork = base.fork();
      // A different suffix page per spec, hopping around the footprint.
      const std::uintptr_t w0 =
          kBase + (static_cast<std::uintptr_t>(s) * 7919 * 4096) %
                      (granules - window);
      for (std::size_t i = 0; i < window; ++i) {
        detector_shaped_op(fork, w0 + i, id++);
      }
    }
  }) / specs;
}

// Odd stride just past a page (4096 granules): consecutive iterations land
// on different pages (lookaside miss) but stay within a chunk for ~512
// accesses (chunk-cache hit) — the regime the two-level directory targets.
constexpr std::uintptr_t kStride = 4099;

template <class Shadow>
double time_shadow_sweep(std::size_t granules, int passes, int reps) {
  return rader::bench::time_best_of(reps, [&] {
    Shadow s;
    const std::uintptr_t mask = granules - 1;  // granules is a power of two
    std::uint32_t id = 1;
    for (int p = 0; p < passes; ++p) {
      for (std::size_t i = 0; i < granules; ++i) {
        const std::uintptr_t g = kBase + ((i * kStride) & mask);
        detector_shaped_op(s, g, id++);
      }
      s.clear();  // the per-spec reset
    }
  });
}

// ---- 3. Bench-local compute kernel -----------------------------------------

// Multi-MB buffer transformed in 256-byte annotated blocks with real work
// per block (several mix rounds per word): the footprint is large, but
// accesses carry computation — the workload class where sampling's
// near-zero overhead claim must hold.
struct ComputeKernel {
  explicit ComputeKernel(std::size_t words) : buf(words, 0x9e3779b9u) {}

  void run() {
    constexpr std::size_t kBlockWords = 32;  // 256 bytes per annotation
    constexpr int kRounds = 16;
    const std::size_t blocks = buf.size() / kBlockWords;
    rader::parallel_for(std::size_t{0}, blocks, [&](std::size_t b) {
      std::uint64_t* block = &buf[b * kBlockWords];
      rader::shadow_write(block, kBlockWords * sizeof(std::uint64_t));
      for (std::size_t i = 0; i < kBlockWords; ++i) {
        std::uint64_t v = block[i] + i;
        for (int r = 0; r < kRounds; ++r) v = rader::mix64(v);
        block[i] = v;
      }
    }, /*grain=*/blocks / 64);
  }

  std::vector<std::uint64_t> buf;
};

template <typename Fn>
double time_tool(Fn&& body, Tool* tool, int reps) {
  rader::spec::NoSteal none;
  return rader::bench::time_best_of(reps, [&] {
    SerialEngine engine(tool, &none);
    engine.run([&] { body(); });
  });
}

struct AppRow {
  std::string name;
  std::string input;
  double t_none = 0;
  double t_empty = 0;
  double t_full = 0;
  double t_sampled = 0;
  bool gated = false;  // participates in the sampling-overhead geomean
};

template <typename Fn>
AppRow measure_app(const std::string& name, const std::string& input,
                   Fn&& body, const SamplingConfig& sampling, int reps,
                   bool gated) {
  AppRow row;
  row.name = name;
  row.input = input;
  row.gated = gated;
  row.t_none = time_tool(body, nullptr, reps);
  {
    rader::EmptyTool empty;
    row.t_empty = time_tool(body, &empty, reps);
  }
  {
    rader::RaceLog log;
    SpPlusDetector detector(&log);
    row.t_full = time_tool(body, &detector, reps);
  }
  {
    rader::RaceLog log;
    SpPlusDetector detector(&log);
    SamplingTool sampler(&detector, sampling);
    row.t_sampled = time_tool(body, &sampler, reps);
  }
  return row;
}

std::string arg_value(int argc, char** argv, const std::string& key) {
  return rader::bench::parse_arg(argc, argv, key);
}

void write_json(const std::string& path, std::size_t granules,
                double ckpt_legacy, double ckpt_packed, double legacy_s,
                double packed_s, double rate, const std::vector<AppRow>& rows,
                double sampling_geomean) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::exit(1);
  }
  const double mops = 1e-6 * static_cast<double>(granules);
  std::fprintf(out,
               "{\n  \"bench\": \"large_footprint\",\n"
               "  \"granules\": %zu,\n"
               "  \"checkpoint\": {\"legacy_us_per_spec\": %.1f, "
               "\"packed_us_per_spec\": %.1f, \"packed_speedup\": %.2f},\n"
               "  \"shadow\": {\"legacy_mops\": %.2f, \"packed_mops\": %.2f, "
               "\"packed_speedup\": %.2f},\n"
               "  \"sample_rate\": %g,\n"
               "  \"sampling_overhead_geomean\": %.4f,\n"
               "  \"apps\": [\n",
               granules, ckpt_legacy * 1e6, ckpt_packed * 1e6,
               ckpt_legacy / ckpt_packed, mops / legacy_s, mops / packed_s,
               legacy_s / packed_s, rate, sampling_geomean);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const AppRow& r = rows[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"input\": \"%s\", "
                 "\"gated\": %s, \"overhead_full\": %.3f, "
                 "\"overhead_sampled\": %.3f}%s\n",
                 r.name.c_str(), r.input.c_str(), r.gated ? "true" : "false",
                 r.t_full / r.t_none, r.t_sampled / r.t_none,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
}

}  // namespace

int main(int argc, char** argv) {
  const int reps = rader::bench::parse_reps(argc, argv, 3);
  const std::size_t mb =
      arg_value(argc, argv, "mb").empty()
          ? 8
          : std::stoul(arg_value(argc, argv, "mb"));
  // Round the footprint to a power of two of granules (1 granule = 1 byte
  // of tracked address space at granule_bits=0).
  std::size_t granules = 1;
  while (granules * 2 <= mb * (std::size_t{1} << 20)) granules *= 2;

  SamplingConfig sampling;
  sampling.enabled = true;
  sampling.rate = arg_value(argc, argv, "sample-rate").empty()
                      ? 0.01
                      : std::stod(arg_value(argc, argv, "sample-rate"));

  // -- 1. Checkpointed sweep (gated) + steady-state sweep (reported).
  const int specs = 40;
  const std::size_t window = 4096;  // one page of suffix accesses per spec
  const double ckpt_legacy =
      time_checkpoint_sweep<LegacyShadow>(granules, specs, window, reps);
  const double ckpt_packed =
      time_checkpoint_sweep<AccessShadow>(granules, specs, window, reps);
  std::printf("checkpointed sweep: %zu-granule (%zu MB) checkpoint, %d "
              "specs x %zu-granule suffix\n",
              granules, granules >> 20, specs, window);
  std::printf("  %-22s %8.1f us/spec\n", "legacy (2x page map)",
              ckpt_legacy * 1e6);
  std::printf("  %-22s %8.1f us/spec\n", "packed (PackedShadow)",
              ckpt_packed * 1e6);
  std::printf("  packed speedup: %.2fx\n\n", ckpt_legacy / ckpt_packed);

  const int passes = 2;
  const double legacy_s =
      time_shadow_sweep<LegacyShadow>(granules, passes, reps) / passes;
  const double packed_s =
      time_shadow_sweep<AccessShadow>(granules, passes, reps) / passes;
  const double mops = 1e-6 * static_cast<double>(granules);
  std::printf("steady-state sweep: page-hopping stride %zu (ungated)\n",
              static_cast<std::size_t>(kStride));
  std::printf("  %-22s %8.2f Mops/s\n", "legacy (2x page map)",
              mops / legacy_s);
  std::printf("  %-22s %8.2f Mops/s\n", "packed (PackedShadow)",
              mops / packed_s);
  std::printf("  packed speedup: %.2fx\n\n", legacy_s / packed_s);

  // -- 2/3. App footprints + sampled overhead.
  std::vector<AppRow> rows;
  {
    auto w = rader::apps::make_benchmark("collision", 1.0);
    rows.push_back(measure_app(w.name, w.input_desc, w.run, sampling, reps,
                               /*gated=*/true));
  }
  {
    ComputeKernel kernel((std::size_t{1} << 20));  // 8 MB buffer
    rows.push_back(measure_app(
        "kernel", "8 MB / 256 B x 16 rounds", [&] { kernel.run(); }, sampling,
        reps, /*gated=*/true));
  }
  {
    auto w = rader::apps::make_benchmark("pbfs", 0.2);
    rows.push_back(measure_app(w.name, w.input_desc, w.run, sampling, reps,
                               /*gated=*/false));
  }

  std::printf("%-10s %-26s %11s %14s %18s\n", "Benchmark", "Input",
              "empty tool", "SP+ overhead", "sampled overhead");
  std::vector<double> gated_overheads;
  for (const AppRow& r : rows) {
    std::printf("%-10s %-26s %10.2fx %13.2fx %17.2fx%s\n", r.name.c_str(),
                r.input.c_str(), r.t_empty / r.t_none, r.t_full / r.t_none,
                r.t_sampled / r.t_none, r.gated ? "" : "  (ungated)");
    if (r.gated) gated_overheads.push_back(r.t_sampled / r.t_none);
  }
  const double sampling_geomean = rader::bench::geomean(gated_overheads);
  std::printf("sampled overhead geomean (gated rows, P=%g): %.3fx\n",
              sampling.rate, sampling_geomean);

  const std::string json_path = arg_value(argc, argv, "json");
  if (!json_path.empty()) {
    write_json(json_path, granules, ckpt_legacy, ckpt_packed, legacy_s,
               packed_s, sampling.rate, rows, sampling_geomean);
    std::printf("wrote %s\n", json_path.c_str());
  }

  int rc = 0;
  const std::string ratio_text = arg_value(argc, argv, "check-ratio");
  if (!ratio_text.empty()) {
    const double floor = std::stod(ratio_text);
    const double ratio = ckpt_legacy / ckpt_packed;
    if (ratio < floor) {
      std::fprintf(stderr,
                   "FAIL: packed checkpoint-sweep speedup %.2fx below the "
                   "%.2fx floor\n",
                   ratio, floor);
      rc = 1;
    } else {
      std::printf("OK: packed checkpoint-sweep speedup %.2fx >= %.2fx\n",
                  ratio, floor);
    }
  }
  const std::string overhead_text =
      arg_value(argc, argv, "check-sampling-overhead");
  if (!overhead_text.empty()) {
    const double ceiling = std::stod(overhead_text);
    if (sampling_geomean > ceiling) {
      std::fprintf(stderr,
                   "FAIL: sampled overhead geomean %.3fx above the %.2fx "
                   "ceiling\n",
                   sampling_geomean, ceiling);
      rc = 1;
    } else {
      std::printf("OK: sampled overhead geomean %.3fx <= %.2fx\n",
                  sampling_geomean, ceiling);
    }
  }
  return rc;
}
