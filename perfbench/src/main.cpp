// verdict_bench: Rader's time-to-verdict benchmark and per-layer cost ledger.
//
//   verdict_bench --workload NAME --seed N --seconds S --trace 0|1
//                 --answers FILE [--tiny]
//   verdict_bench --oracle-check --answers FILE
//
// --trace 0, the timed run: set the workload up kSetups times (reporting
// the median), then run rounds of verdicts for S seconds and print the
// end-to-end metrics.  --trace 1, the traced run: set up once, then run
// stacked layer rounds for S seconds and print the per-layer metrics.
// Every verdict is checked against its known answer.  The last line of
// stdout is one JSON object with the keys correct, attempted, failed and
// metrics; the human-readable summary goes to stderr.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using perfbench::LayerMetric;
using perfbench::Verdict;

// Set-ups per timed run, spread evenly over the window.
constexpr int kSetups = 20;
// verdict_tail_s is the 99th percentile of the per-round samples, lowered
// (to at most p90) until ten samples lie beyond it.  p90 alone flipped
// between the bimodal modes like a median does; the highest percentile with
// ten beyond (p99.95 at 20 000 rounds) caught single scheduler hiccups.
double tail_quantile(std::size_t samples) {
  const double ten_beyond = 1.0 - 10.0 / static_cast<double>(samples);
  return std::clamp(ten_beyond, 0.9, 0.99);
}
// setup_s and verdict_s are this quantile of their samples, specs_per_s the
// mirror quantile of the per-round rates.  On a shared host the samples are
// bimodal: stretches where another tenant loads the core run about 1.6x
// slower.  The median flips between the modes from run to run; the low
// quantile follows the uncontended mode (perfbench/README.md, "Noise").
constexpr double kCentralQuantile = 0.05;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The q-quantile of `v` by linear interpolation between order statistics.
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double at = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(at);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (at - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  bool oracle_check = false;
  std::string answers;
};

bool parse_args(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args->tiny = true;
      continue;
    }
    if (flag == "--oracle-check") {
      args->oracle_check = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--answers") {
      args->answers = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return !args->answers.empty() &&
         (args->oracle_check || !args->workload.empty());
}

/// known_answers.txt: "<workload> <check> <verdict...>" per line, '#'
/// comments.  Check names are unique, and a workload may check another's
/// verdicts (sweep-prefix runs sweep-isolated's in its traced run), so every
/// line is loaded.
bool load_answers(const std::string& path,
                  std::map<std::string, std::string>* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto a = line.find(' ');
    const auto b = a == std::string::npos ? a : line.find(' ', a + 1);
    if (b == std::string::npos) return false;
    (*out)[line.substr(a + 1, b - a - 1)] = line.substr(b + 1);
  }
  return true;
}

/// Verdicts attempted and failed (threw, failed the program's own output
/// check, or disagreed with the known answer).
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(const std::vector<Verdict>& verdicts) {
    for (const Verdict& v : verdicts) {
      ++attempted;
      if (v.error.empty() && v.answer == v.expected) continue;
      if (++failed <= 5) {
        std::fprintf(stderr, "FAILED %s: %s\n  got:      %s\n  expected: %s\n",
                     v.check.c_str(), v.error.empty() ? "wrong verdict"
                                                      : v.error.c_str(),
                     v.answer.c_str(), v.expected.c_str());
      }
    }
  }
};

void print_result(const Tally& tally, const std::vector<LayerMetric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              tally.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int timed_run(const Args& args,
              const std::map<std::string, std::string>& answers) {
  Tally tally;

  // Set-up: inputs, family, probe, and one warm-up round (also checked).
  // The first instance serves the timed loop.  The other set-ups are spread
  // over the window and discarded: back to back, they all fell into the
  // same stretch of host contention.
  std::vector<double> setups;
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    auto w = perfbench::make_workload(args.workload, args.seed, args.tiny,
                                      answers);
    tally.add(w->round());
    setups.push_back(seconds_since(t0));
    return w;
  };
  const auto workload = set_up();
  const double setup_every = args.seconds / kSetups;

  // Closed loop: the next round starts when the previous one returns.
  std::vector<double> per_verdict, specs_rate;
  const auto start = Clock::now();
  do {
    if (seconds_since(start) >= setup_every * static_cast<double>(setups.size())) {
      set_up();
    }
    const auto verdicts = workload->round();
    tally.add(verdicts);
    double round_s = 0;
    std::uint64_t specs = 0;
    for (const Verdict& v : verdicts) {
      round_s += v.seconds;
      specs += v.specs;
    }
    per_verdict.push_back(round_s / static_cast<double>(verdicts.size()));
    specs_rate.push_back(static_cast<double>(specs) / round_s);
  } while (seconds_since(start) < args.seconds);

  std::vector<double> sorted = per_verdict;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  const double tail_q = tail_quantile(n);
  const double tail_s = quantile(per_verdict, tail_q);
  const double setup_s = quantile(setups, kCentralQuantile);
  const double verdict_s = quantile(per_verdict, kCentralQuantile);
  const double specs_per_s = quantile(specs_rate, 1 - kCentralQuantile);
  const double rss = peak_rss_mb();

  std::fprintf(stderr,
               "%s seed=%llu: %zu rounds of %zu verdict(s) in %.1fs; "
               "verdict_s %.4f (p5)  median %.4f  tail %.4f (p%.1f, %zu beyond)  "
               "setup_s %.3f  specs/s %.1f  peak RSS %.1f MB  "
               "failed_frac %.4f\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               n, workload->verdicts_per_round(), seconds_since(start),
               verdict_s, median(per_verdict), tail_s, 100 * tail_q,
               static_cast<std::size_t>(std::count_if(
                   per_verdict.begin(), per_verdict.end(),
                   [&](double v) { return v > tail_s; })),
               setup_s, specs_per_s, rss,
               static_cast<double>(tally.failed) /
                   static_cast<double>(tally.attempted));
  std::fprintf(stderr, "  per-verdict deciles:");
  for (int d = 0; d <= 10; ++d) {
    std::fprintf(stderr, " %.4f", sorted[(n - 1) * static_cast<std::size_t>(d) / 10]);
  }
  std::fprintf(stderr, "\n  set-ups:");
  for (const double t : setups) std::fprintf(stderr, " %.4f", t);
  std::fprintf(stderr, "\n");
  print_result(tally, {{"setup_s", "s", setup_s},
                       {"verdict_s", "s", verdict_s},
                       {"verdict_tail_s", "s", tail_s},
                       {"specs_per_s", "1/s", specs_per_s},
                       {"peak_rss_mb", "MB", rss}});
  return tally.failed == 0 ? 0 : 1;
}

int traced_run(const Args& args,
               const std::map<std::string, std::string>& answers) {
  Tally tally;
  auto workload =
      perfbench::make_workload(args.workload, args.seed, args.tiny, answers);
  tally.add(workload->round());

  perfbench::Series series;
  series.count("verdicts_per_round",
               static_cast<double>(workload->verdicts_per_round()));
  std::size_t rounds = 0;
  const auto start = Clock::now();
  do {
    tally.add(workload->traced_round(series));
    ++rounds;
  } while (seconds_since(start) < args.seconds);

  const auto metrics = perfbench::layer_metrics(series);
  std::fprintf(stderr, "%s seed=%llu: %zu traced round(s) in %.1fs\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               rounds, seconds_since(start));
  for (const auto& m : metrics) {
    std::fprintf(stderr, "  %-28s %14.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::fprintf(stderr, "  series (medians of times, first-round counts):\n");
  for (const auto& [key, values] : series.times) {
    std::fprintf(stderr, "    %-32s %.6g\n", key.c_str(), series.t(key));
  }
  for (const auto& [key, values] : series.counts) {
    std::fprintf(stderr, "    %-32s %.17g\n", key.c_str(), series.c(key));
  }
  for (const auto& key : series.drifting_counts()) {
    std::fprintf(stderr, "  note: count %s differed between rounds\n",
                 key.c_str());
  }
  print_result(tally, metrics);
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // The isolated workload crashes a sandbox child on purpose; keep it from
  // leaving core files behind.
  const rlimit no_core{0, 0};
  setrlimit(RLIMIT_CORE, &no_core);
  // Keep freed memory mapped for reuse: set-ups and verdicts after the first
  // then time Rader's work, not the kernel's page-fault path, whose cost on
  // a shared host varies by a third between runs (README.md, "Noise").
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);

  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: verdict_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --answers FILE [--tiny]\n"
                 "       verdict_bench --oracle-check --answers FILE\n");
    return 2;
  }
  std::map<std::string, std::string> answers;
  if (!load_answers(args.answers, &answers)) {
    std::fprintf(stderr, "cannot read known answers from %s\n",
                 args.answers.c_str());
    return 2;
  }
  if (args.oracle_check) return perfbench::oracle_check(answers) ? 0 : 1;
  const auto& names = perfbench::workload_names();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  try {
    return args.trace ? traced_run(args, answers) : timed_run(args, answers);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark aborted: %s\n", e.what());
    return 1;
  }
}
