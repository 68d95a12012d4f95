// The benchmark's four workloads, each a closed loop of Rader verdicts.
//
// A *round* is one call of every check in the workload's mix; a *verdict*
// is one check call returning a RaceLog (detect-*) or one complete family
// sweep (sweep-*).  Each verdict is compared with its checked-in known
// answer (known_answers.txt) and, where the program has one, the program's
// own output check.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct Verdict {
  std::string check;     // known-answer key, e.g. "pbfs/sp+/no-steals"
  std::string answer;    // canonical verdict (render_log), "" if it threw
  std::string expected;  // the checked-in known answer
  std::string error;     // exception text or output-check failure
  double seconds = 0;    // wall time of the check call alone
  std::uint64_t specs = 0;  // family members finished by the call
};

/// Per-round samples of the traced run.  Times are summarized by their
/// median over rounds; counts must repeat exactly from round to round.
struct Series {
  std::map<std::string, std::vector<double>> times;
  std::map<std::string, std::vector<double>> counts;

  void time(const std::string& key, double v) { times[key].push_back(v); }
  void count(const std::string& key, double v) { counts[key].push_back(v); }
  double t(const std::string& key) const;  // median (0 when never sampled)
  double c(const std::string& key) const;  // first round (0 when absent)
  std::vector<std::string> drifting_counts() const;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// One timed round: every check of the mix, each verified.
  virtual std::vector<Verdict> round() = 0;

  /// One traced round: the stacked layer configurations, interleaved, plus
  /// the workload's own layer measurements.  Returns the verdicts it made
  /// with Rader's entry points (they are checked like timed ones).
  virtual std::vector<Verdict> traced_round(Series& s) = 0;

  /// Verdicts per round (verdict_s is round time divided by this).
  virtual std::size_t verdicts_per_round() const = 0;
};

/// Build workload `name` from `seed`: input generation, family
/// construction and the K/D probe — everything set-up covers except the
/// warm-up verdict.  `tiny` selects the self-test sizes, which exercise
/// every layer in well under a second.  `answers` maps check name to
/// expected verdict.  Returns nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(
    const std::string& name, std::uint64_t seed, bool tiny,
    const std::map<std::string, std::string>& answers);

const std::vector<std::string>& workload_names();

/// Cross-check the known answers against the brute-force DAG oracle, at
/// sizes the oracle can handle, and run each app's own output check.
/// Prints one line per execution; returns true when every check agrees.
bool oracle_check(const std::map<std::string, std::string>& answers);

/// Per-layer metric names, units, and values of a traced run (all of them,
/// in BENCHMARK.json order; metrics a workload has no layer for are 0).
struct LayerMetric {
  std::string name;
  std::string unit;
  double value;
};
std::vector<LayerMetric> layer_metrics(const Series& s);

}  // namespace perfbench
