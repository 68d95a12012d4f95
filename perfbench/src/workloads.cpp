#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <functional>
#include <mutex>
#include <random>
#include <set>
#include <stdexcept>

#include "apps/fib.hpp"
#include "apps/graph.hpp"
#include "apps/pbfs.hpp"
#include "apps/workloads.hpp"
#include "core/driver.hpp"
#include "dag/oracle.hpp"
#include "dag/random_program.hpp"
#include "dag/recorder.hpp"
#include "ledger.hpp"
#include "reducers/monoid.hpp"
#include "reducers/reducer.hpp"
#include "runtime/api.hpp"
#include "runtime/run.hpp"
#include "spec/spec_family.hpp"
#include "support/faultpoint.hpp"
#include "support/metrics.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using SpecPtr = std::shared_ptr<const rader::spec::StealSpec>;
using Family = std::vector<std::unique_ptr<rader::spec::StealSpec>>;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// ---- Verdicts -------------------------------------------------------------

/// Address range whose races render as stable offsets; any other address
/// (reducer views, reallocated per run) renders as "view".
struct Pool {
  std::uintptr_t lo = 0;
  std::uintptr_t hi = 0;
};

/// Canonical, process-independent rendering of a RaceLog: one key per race
/// identity with its occurrence count, sorted, or "clean".  Pool races are
/// keyed by slot (the pool holds longs; SP+ reports each racing byte), so
/// their counts sum over the slot's bytes.
std::string render_log(const rader::RaceLog& log, Pool pool = {}) {
  if (!log.any()) return "clean";
  std::map<std::string, std::uint64_t> keys;
  for (const auto& r : log.view_read_races()) {
    keys["view-read r" + std::to_string(r.reducer) + " '" + r.prior_label +
         "' '" + r.current_label + "'"] += r.occurrences;
  }
  for (const auto& r : log.determinacy_races()) {
    const bool in_pool = r.addr >= pool.lo && r.addr < pool.hi;
    keys["determinacy " +
         (in_pool ? "pool[" + std::to_string((r.addr - pool.lo) / sizeof(long)) + "]"
                  : "view") +
         (r.current_kind == rader::AccessKind::kWrite ? " write" : " read") +
         (r.current_view_aware ? " aware" : " oblivious") +
         (r.prior_was_write ? " after-write" : " after-read") + " '" +
         r.current_label + "'"] += r.occurrences;
  }
  std::string out;
  for (const auto& [key, n] : keys) {
    out += (out.empty() ? "" : "; ") + key + " x" + std::to_string(n);
  }
  return out;
}

std::string known_answer(const std::map<std::string, std::string>& answers,
                         const std::string& check) {
  const auto it = answers.find(check);
  return it == answers.end() ? "<no known answer for " + check + ">"
                             : it->second;
}

/// Time `call` alone (it returns the family members it finished).
template <typename Call>
Verdict timed_verdict(const std::string& check, const std::string& expected,
                      Call&& call) {
  Verdict v;
  v.check = check;
  v.expected = expected;
  try {
    const auto t0 = Clock::now();
    v.specs = call();
    v.seconds = seconds_since(t0);
  } catch (const std::exception& e) {
    v.error = std::string("threw: ") + e.what();
  }
  return v;
}

// ---- Stacked layer passes -------------------------------------------------

enum class Detector { kSpPlus, kPeerSet };

/// One single execution: a program under a steal spec and a detector.
struct Check {
  std::string name;
  std::function<void()> program;
  SpecPtr spec;
  Detector detector;
};

std::unique_ptr<rader::Tool> make_detector(Detector d, rader::RaceLog* log) {
  if (d == Detector::kPeerSet) {
    return std::make_unique<rader::PeerSetDetector>(log);
  }
  return std::make_unique<rader::SpPlusDetector>(log);
}

constexpr const char* kKindNames[kKinds] = {"access", "control", "reduce",
                                            "reducer_op", "other"};

/// Run every check under each layer configuration in turn — uninstrumented,
/// EmptyTool, shadow-only, the detector, the ledger around an EmptyTool,
/// the ledger around the detector, the detector with a metrics registry —
/// and record the round's sums, per detector, into `s` ("sp." for SP+,
/// "ps." for Peer-Set).  Interleaving per check makes host drift cancel in
/// the differences between configurations.
void stacked_round(const std::vector<Check>& checks, Series& s) {
  struct Group {
    double none = 0, empty = 0, shadow = 0, full = 0, timed = 0;
    Ledger floor, detector;
    std::uint64_t granules = 0, spawns = 0, steals = 0, reduces = 0;
    std::uint64_t occurrences = 0, stored = 0, checks = 0;
    rader::metrics::Snapshot counters;
  };
  Group groups[2];
  for (const Check& c : checks) {
    Group& g = groups[c.detector == Detector::kPeerSet ? 1 : 0];
    ++g.checks;
    const auto run = [&](rader::Tool* tool) {
      rader::SerialEngine engine(tool, c.spec.get());
      engine.run(c.program);
      return engine.stats();
    };
    auto t0 = Clock::now();
    const auto stats = run(nullptr);
    g.none += seconds_since(t0);
    g.spawns += stats.spawns;
    g.steals += stats.steals;
    g.reduces += stats.reduces;
    {
      rader::EmptyTool empty;
      t0 = Clock::now();
      run(&empty);
      g.empty += seconds_since(t0);
    }
    if (c.detector == Detector::kSpPlus) {
      ShadowOnlyTool shadow;
      t0 = Clock::now();
      run(&shadow);
      g.shadow += seconds_since(t0);
      g.granules += shadow.granules();
    }
    {
      rader::RaceLog log;
      const auto detector = make_detector(c.detector, &log);
      t0 = Clock::now();
      run(detector.get());
      g.full += seconds_since(t0);
      g.occurrences += log.view_read_count() + log.determinacy_count();
      g.stored += log.view_read_races().size() + log.determinacy_races().size();
    }
    {
      rader::EmptyTool empty;
      TimedTool timed(&empty);
      run(&timed);
      for (unsigned k = 0; k < kKinds; ++k) {
        g.floor.nanos[k] += timed.ledger().nanos[k];
        g.floor.events[k] += timed.ledger().events[k];
      }
    }
    {
      rader::RaceLog log;
      const auto detector = make_detector(c.detector, &log);
      TimedTool timed(detector.get());
      t0 = Clock::now();
      run(&timed);
      g.timed += seconds_since(t0);
      for (unsigned k = 0; k < kKinds; ++k) {
        g.detector.nanos[k] += timed.ledger().nanos[k];
        g.detector.events[k] += timed.ledger().events[k];
      }
    }
    {
      rader::RaceLog log;
      const auto detector = make_detector(c.detector, &log);
      rader::metrics::Registry registry;
      {
        rader::metrics::Scope scope(&registry);
        run(detector.get());
      }
      g.counters.add(registry.snapshot());
    }
  }

  using rader::metrics::Counter;
  for (int i = 0; i < 2; ++i) {
    const Group& g = groups[i];
    const std::string p = i == 0 ? "sp." : "ps.";
    s.time(p + "none", g.none);
    s.time(p + "empty", g.empty);
    s.time(p + "shadow", g.shadow);
    s.time(p + "full", g.full);
    s.time(p + "timed", g.timed);
    s.time(p + "floor_ns", static_cast<double>(g.floor.total_nanos()));
    s.time(p + "detector_ns", static_cast<double>(g.detector.total_nanos()));
    for (unsigned k = 0; k < kKinds; ++k) {
      s.time(p + "floor_ns." + kKindNames[k],
             static_cast<double>(g.floor.nanos[k]));
      s.time(p + "detector_ns." + kKindNames[k],
             static_cast<double>(g.detector.nanos[k]));
      s.count(p + "events." + kKindNames[k],
              static_cast<double>(g.detector.events[k]));
    }
    s.count(p + "checks", static_cast<double>(g.checks));
    s.count(p + "granules", static_cast<double>(g.granules));
    s.count(p + "spawns", static_cast<double>(g.spawns));
    s.count(p + "steals", static_cast<double>(g.steals));
    s.count(p + "reduces", static_cast<double>(g.reduces));
    s.count(p + "occurrences", static_cast<double>(g.occurrences));
    s.count(p + "stored", static_cast<double>(g.stored));
    s.count(p + "accesses", static_cast<double>(g.counters.counter(
                                Counter::kAccessesInstrumented)));
    s.count(p + "dsu_finds",
            static_cast<double>(g.counters.counter(Counter::kDsuFinds)));
    // Shadow pages depend on where the heap places the program's data
    // relative to 4 KiB page boundaries, which can move by a page per
    // allocation between runs: summarized by their median.
    s.time(p + "pages_touched", static_cast<double>(g.counters.counter(
                                    Counter::kShadowPagesTouched)));
    s.time(p + "pages_cow",
           static_cast<double>(g.counters.counter(Counter::kShadowPagesCoW)));
  }
}

/// Seconds of one uninstrumented no-steal run: the K/D probe.
double time_probe(const std::function<void()>& program,
                  rader::SerialEngine::Stats* stats = nullptr) {
  const auto t0 = Clock::now();
  const auto st = rader::run_serial(program);
  const double secs = seconds_since(t0);
  if (stats != nullptr) *stats = st;
  return secs;
}

// ---- Programs -------------------------------------------------------------

/// A race-free synthetic sync block: K spawned strands, each writing its own
/// slots, each followed by a reducer update — the Theorem-7 shape.  The seed
/// spreads a fixed total of writes over the strands, so every seed costs the
/// same while the shape differs.
struct SyntheticProgram {
  std::vector<std::uint32_t> writes;  // per strand
  std::vector<std::size_t> first;     // first slot of each strand
  std::vector<long> slots;

  SyntheticProgram(std::uint32_t k, std::uint32_t total, std::uint64_t seed)
      : writes(k, 1), first(k, 0) {
    std::mt19937_64 rng(seed);
    for (std::uint32_t extra = k; extra < total; ++extra) ++writes[rng() % k];
    std::size_t next = 0;
    for (std::uint32_t i = 0; i < k; ++i) {
      first[i] = next;
      next += writes[i];
    }
    slots.assign(next, 0);
  }

  void operator()() {
    rader::reducer<rader::monoid::op_add<long>> strands;
    for (std::size_t i = 0; i < writes.size(); ++i) {
      rader::spawn([this, i] {
        for (std::uint32_t j = 0; j < writes[i]; ++j) {
          long& slot = slots[first[i] + j];
          rader::shadow_write(&slot, sizeof(slot),
                              rader::SrcTag{"synthetic strand write"});
          slot += 1;
        }
      });
      strands.update([](long& v) { v += 1; });
    }
    rader::sync();
  }
};

/// The racy random program detect-schedules checks.  Fixed, not seeded: its
/// checked-in race set and occurrence counts were cross-checked against the
/// DAG oracle (oracle_check).
rader::dag::RandomProgramParams rprog_params() {
  rader::dag::RandomProgramParams p;
  p.seed = 7;
  p.p_update_shared = 0.1;
  return p;
}

/// A program check_exhaustive sweeps.  The sweep asks its factory for a
/// fresh instance per worker and after every resume fallback, so each
/// instance gets its own output over the shared input; the outputs of
/// instances that finished a run are checked after the sweep.
class SweptProgram {
 public:
  virtual ~SweptProgram() = default;

  rader::ProgramFactory factory() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      finished_ = 0;
      failed_ = 0;
    }
    return [this] { return instance(); };
  }

  /// True when at least one instance finished a run and every finished
  /// run's output passed the program's own check.
  bool outputs_ok() {
    std::lock_guard<std::mutex> lock(mu_);
    return finished_ > 0 && failed_ == 0;
  }

  virtual std::function<void()> instance() = 0;

 protected:
  void record(bool ok) {
    std::lock_guard<std::mutex> lock(mu_);
    ++finished_;
    failed_ += ok ? 0 : 1;
  }

 private:
  std::mutex mu_;
  std::uint64_t finished_ = 0;
  std::uint64_t failed_ = 0;
};

class SweptFib final : public SweptProgram {
 public:
  explicit SweptFib(int n)
      : n_(n), value_(rader::apps::fib_serial(n)),
        calls_(rader::apps::fib_call_count(n)) {}

  std::function<void()> instance() override {
    return [this] {
      const auto r = rader::apps::run_fib(n_);
      record(r.value == value_ && static_cast<std::uint64_t>(r.calls) == calls_);
    };
  }

 private:
  int n_;
  std::uint64_t value_;
  std::uint64_t calls_;
};

class SweptPbfs final : public SweptProgram {
 public:
  SweptPbfs(std::uint32_t vertices, std::uint64_t edges)
      : graph_(rader::apps::Graph::rmat(vertices, edges, 0x9bf5)),
        reference_(rader::apps::serial_bfs(graph_, 0)) {}

  std::function<void()> instance() override {
    return [this] { record(rader::apps::pbfs(graph_, 0) == reference_); };
  }

 private:
  rader::apps::Graph graph_;
  std::vector<std::uint32_t> reference_;
};

// Sandbox children of the isolated sweep.
constexpr unsigned kSweepWorkers = 2;
// Workers of the prefix sweep.  Two workers doubled the sweep's exposure to
// host contention (its verdict_s moved 30% between sets of runs a quarter
// of an hour apart) and made the sweep's counters scheduling-dependent.
constexpr unsigned kPrefixWorkers = 1;

// ---- detect-access / detect-schedules ------------------------------------

struct DetectCheck {
  Check check;
  Pool pool;
  std::function<bool()> output_ok;  // the program's own check ({} = none)
  std::string expected;
};

class DetectWorkload : public Workload {
 public:
  std::vector<Verdict> round() override {
    std::vector<Verdict> out;
    for (const DetectCheck& d : checks_) {
      const Check& c = d.check;
      rader::RaceLog log;
      Verdict v = timed_verdict(c.name, d.expected, [&] {
        log = c.detector == Detector::kPeerSet
                  ? rader::Rader::check_view_read(c.program)
                  : rader::Rader::check_determinacy(c.program, *c.spec);
        return std::uint64_t{1};
      });
      if (v.error.empty()) {
        v.answer = render_log(log, d.pool);
        if (d.output_ok && !d.output_ok()) {
          v.error = "program output failed its own check";
        }
      }
      out.push_back(std::move(v));
    }
    return out;
  }

  std::vector<Verdict> traced_round(Series& s) override {
    std::vector<Check> checks;
    for (const DetectCheck& d : checks_) checks.push_back(d.check);
    stacked_round(checks, s);
    double probe = 0;
    for (const auto* program : probed_) probe += time_probe(*program);
    s.time("probe", probe);
    s.time("family_build", family_build_s_);
    s.count("family_size", static_cast<double>(checks_.size()));
    return {};
  }

  std::size_t verdicts_per_round() const override { return checks_.size(); }

 protected:
  std::vector<DetectCheck> checks_;
  std::vector<const std::function<void()>*> probed_;  // K/D probe programs
  double family_build_s_ = 0;  // constructing the mix's specs
};

class DetectAccess final : public DetectWorkload {
 public:
  DetectAccess(bool tiny,
               const std::map<std::string, std::string>& answers)
      : pbfs_(rader::apps::make_benchmark("pbfs", tiny ? 0.002 : 0.01)) {
    time_probe(pbfs_.run);
    probed_ = {&pbfs_.run};
    const auto t0 = Clock::now();
    SpecPtr none = std::make_shared<rader::spec::NoSteal>();
    family_build_s_ = seconds_since(t0);
    const std::string name = "pbfs/sp+/no-steals";
    checks_.push_back({{name, pbfs_.run, none, Detector::kSpPlus},
                       {},
                       pbfs_.verify,
                       known_answer(answers, name)});
  }

 private:
  rader::apps::Workload pbfs_;
};

class DetectSchedules final : public DetectWorkload {
 public:
  DetectSchedules(std::uint64_t seed, bool tiny,
                  const std::map<std::string, std::string>& answers)
      : fib_(rader::apps::make_benchmark("fib",
                                         tiny ? 1.0 / 4096 : 1.0 / 256)),
        knapsack_(rader::apps::make_benchmark(
            "knapsack", tiny ? 1.0 / 4096 : 1.0 / 256)),
        rprog_(std::make_unique<rader::dag::RandomProgram>(rprog_params())) {
    rader::SerialEngine::Stats fib_stats, knapsack_stats;
    time_probe(fib_.run, &fib_stats);
    time_probe(knapsack_.run, &knapsack_stats);
    probed_ = {&fib_.run, &knapsack_.run};
    const std::uint32_t fib_k = std::max<std::uint32_t>(2, fib_stats.max_sync_block);
    const std::uint32_t knapsack_k =
        std::max<std::uint32_t>(2, knapsack_stats.max_sync_block);

    // The paper's Figure-7 configurations: check-updates steals at half the
    // maximum sync-block size; check-reductions picks a random triple per
    // sync block, seeded by the workload seed.
    const auto t0 = Clock::now();
    SpecPtr none = std::make_shared<rader::spec::NoSteal>();
    SpecPtr updates = std::make_shared<rader::spec::DepthSteal>(
        std::max<std::uint64_t>(1, fib_k / 2));
    SpecPtr reductions = std::make_shared<rader::spec::RandomTripleSteal>(
        mix64(seed ^ 0x6b6e6170ULL), knapsack_k);
    SpecPtr all = std::make_shared<rader::spec::StealAll>();
    family_build_s_ = seconds_since(t0);

    rader::dag::RandomProgram* rprog = rprog_.get();
    const auto [lo, hi] = rprog->pool_range();
    const std::function<void()> rprog_run = [rprog] { (*rprog)(); };
    const auto add = [&](const std::string& name, const std::function<void()>& program,
                         SpecPtr spec, Detector d, Pool pool,
                         std::function<bool()> output_ok) {
      checks_.push_back({{name, program, std::move(spec), d},
                         pool,
                         std::move(output_ok),
                         known_answer(answers, name)});
    };
    add("fib/peer-set", fib_.run, none, Detector::kPeerSet, {}, fib_.verify);
    add("fib/sp+/no-steals", fib_.run, none, Detector::kSpPlus, {}, fib_.verify);
    add("fib/sp+/check-updates", fib_.run, updates, Detector::kSpPlus, {},
        fib_.verify);
    add("knapsack/sp+/check-reductions", knapsack_.run, reductions,
        Detector::kSpPlus, {}, knapsack_.verify);
    add("rprog/peer-set", rprog_run, none, Detector::kPeerSet, {lo, hi}, {});
    add("rprog/sp+/steal-all", rprog_run, all, Detector::kSpPlus, {lo, hi}, {});
  }

 private:
  rader::apps::Workload fib_;
  rader::apps::Workload knapsack_;
  std::unique_ptr<rader::dag::RandomProgram> rprog_;
};

// ---- sweep-isolated -------------------------------------------------------

class SweepIsolated final : public Workload {
 public:
  SweepIsolated(std::uint64_t seed, bool tiny,
                const std::map<std::string, std::string>& answers)
      : k_(tiny ? 8 : 24),
        total_writes_(k_ * (tiny ? 4 : 8)),
        shape_seed_(mix64(seed ^ 0x73796e7468ULL)),
        program_(k_, total_writes_, shape_seed_) {
    rader::SerialEngine::Stats stats;
    time_probe(program_run(), &stats);
    if (stats.max_sync_block < k_) {
      throw std::runtime_error("synthetic program probe found K=" +
                               std::to_string(stats.max_sync_block));
    }
    family_ = rader::spec::reduce_coverage_family(k_);
    // The seed picks an early member, so that in every seed the retry's
    // backoff overlaps the other child's work instead of ending the sweep.
    crash_index_ = mix64(seed) % std::min<std::size_t>(family_.size(), 32);
    crash_spec_ = family_[crash_index_]->describe();

    expected_ = known_answer(answers, kCheck);
    const std::string placeholder = "{crash-spec}";
    if (const auto at = expected_.find(placeholder); at != std::string::npos) {
      expected_.replace(at, placeholder.size(), crash_spec_);
    }
    const std::function<void()> run = program_run();
    for (auto& spec : rader::spec::reduce_coverage_family(k_)) {
      checks_.push_back({kCheck, run, SpecPtr(std::move(spec)),
                         Detector::kSpPlus});
    }
  }

  std::vector<Verdict> round() override { return {crashed_verdict(nullptr)}; }

  /// The isolation layer: the verdict with its injected crash, then the
  /// same family without it, isolated and in-process.
  std::vector<Verdict> isolation_layers(Series& s) {
    rader::SweepResult crashed;
    std::vector<Verdict> out;
    out.push_back(crashed_verdict(&crashed));
    s.time("isolated_crash", out.back().seconds);
    using rader::metrics::Counter;
    s.count("retries",
            static_cast<double>(crashed.metrics.counter(Counter::kSweepRetries)));
    s.count("quarantined", static_cast<double>(crashed.metrics.counter(
                               Counter::kSweepQuarantined)));
    s.time("isolated", clean_sweep(rader::SweepIsolation::kProcs));
    s.time("in_process", clean_sweep(rader::SweepIsolation::kNone));
    return out;
  }

  std::vector<Verdict> traced_round(Series& s) override {
    stacked_round(checks_, s);
    std::vector<Verdict> out = isolation_layers(s);
    s.time("probe", time_probe(program_run()));
    const auto t0 = Clock::now();
    const Family family = rader::spec::reduce_coverage_family(k_);
    s.time("family_build", seconds_since(t0));
    s.count("family_size", static_cast<double>(family.size()));
    return out;
  }

  std::size_t verdicts_per_round() const override { return 1; }

 private:
  static constexpr const char* kCheck = "synthetic/reduce-family/isolated";

  std::function<void()> program_run() {
    SyntheticProgram* p = &program_;
    return [p] { (*p)(); };
  }

  rader::ProgramFactory factory() const {
    const std::uint32_t k = k_, total = total_writes_;
    const std::uint64_t seed = shape_seed_;
    return [k, total, seed] {
      auto p = std::make_shared<SyntheticProgram>(k, total, seed);
      return std::function<void()>([p] { (*p)(); });
    };
  }

  /// The injected crash, armed for one sweep.  Arming is process-wide and
  /// the site fires in in-process sweeps too, so it must not outlive it.
  struct ArmedCrash {
    explicit ArmedCrash(std::size_t index) {
      std::string error;
      if (!rader::faultpoint::arm("sweep.spec:crash:" + std::to_string(index),
                                  &error)) {
        throw std::runtime_error("cannot arm the injected crash: " + error);
      }
    }
    ~ArmedCrash() { rader::faultpoint::disarm_all(); }
    ArmedCrash(const ArmedCrash&) = delete;
    ArmedCrash& operator=(const ArmedCrash&) = delete;
  };

  static rader::SweepOptions options(rader::SweepIsolation isolation) {
    rader::SweepOptions o;
    o.threads = kSweepWorkers;
    o.strategy = rader::SweepStrategy::kRerun;
    o.isolation = isolation;
    o.max_retries = 1;
    return o;
  }

  Verdict crashed_verdict(rader::SweepResult* keep) {
    rader::SweepResult result;
    Verdict v = timed_verdict(kCheck, expected_, [&] {
      const ArmedCrash armed(crash_index_);
      result = rader::sweep_family(factory(), family_,
                                   options(rader::SweepIsolation::kProcs));
      return result.spec_runs;
    });
    if (v.error.empty()) {
      v.answer = render_log(result.log);
      for (const auto& f : result.failures) {
        v.answer += " | quarantined " + f.spec + " (" + f.cause + ")";
      }
      if (result.spec_runs + result.failures.size() + result.specs_skipped !=
          family_.size()) {
        v.error = "sweep accounting does not add up to the family size";
      }
    }
    if (keep != nullptr) *keep = std::move(result);
    return v;
  }

  double clean_sweep(rader::SweepIsolation isolation) {
    const auto t0 = Clock::now();
    const auto result = rader::sweep_family(factory(), family_, options(isolation));
    const double secs = seconds_since(t0);
    if (result.log.any() || !result.failures.empty() ||
        result.spec_runs != family_.size()) {
      throw std::runtime_error("clean synthetic sweep lost specs or raced");
    }
    return secs;
  }

  std::uint32_t k_;
  std::uint32_t total_writes_;
  std::uint64_t shape_seed_;
  SyntheticProgram program_;
  Family family_;
  std::vector<Check> checks_;
  std::size_t crash_index_ = 0;
  std::string crash_spec_;
  std::string expected_;
};

// ---- sweep-prefix ---------------------------------------------------------

class SweepPrefix final : public Workload {
 public:
  SweepPrefix(std::uint64_t seed, bool tiny,
              const std::map<std::string, std::string>& answers)
      : isolated_(seed, tiny, answers) {
    const std::uint32_t vertices = tiny ? 400 : 700;
    programs_.push_back(std::make_unique<Program>(
        "fib", std::make_unique<SweptFib>(tiny ? 14 : 15), answers));
    programs_.push_back(std::make_unique<Program>(
        "pbfs",
        std::make_unique<SweptPbfs>(vertices, std::uint64_t{vertices} * 19 / 3),
        answers));
  }

  std::vector<Verdict> round() override {
    std::vector<Verdict> out;
    for (const auto& p : programs_) {
      out.push_back(p->verdict(rader::SweepStrategy::kPrefix));
    }
    return out;
  }

  std::vector<Verdict> traced_round(Series& s) override {
    std::vector<Check> checks;
    for (const auto& p : programs_) {
      checks.insert(checks.end(), p->checks.begin(), p->checks.end());
    }
    stacked_round(checks, s);

    // The verdicts themselves, prefix then rerun, each under a registry so
    // the sweep's own counters land here.
    std::vector<Verdict> out;
    double prefix = 0, rerun = 0, probe = 0;
    double checkpoints = 0, forks = 0, fallbacks = 0;
    using rader::metrics::Counter;
    for (const auto& p : programs_) {
      rader::metrics::Registry registry, rerun_registry;
      {
        rader::metrics::Scope scope(&registry);
        out.push_back(p->verdict(rader::SweepStrategy::kPrefix));
      }
      prefix += out.back().seconds;
      s.time("prefix." + p->name, out.back().seconds);
      {
        rader::metrics::Scope scope(&rerun_registry);
        out.push_back(p->verdict(rader::SweepStrategy::kRerun));
      }
      rerun += out.back().seconds;
      s.time("rerun." + p->name, out.back().seconds);

      const auto& snap = registry.snapshot();
      const auto n = [&](Counter c) {
        return static_cast<double>(snap.counter(c));
      };
      probe += snap.phase_seconds(rader::metrics::Phase::kProbe);
      checkpoints += n(Counter::kSweepCheckpoints);
      forks += n(Counter::kSweepForks);
      fallbacks += n(Counter::kSweepResumeFallbacks);
      s.count("forks." + p->name, n(Counter::kSweepForks));
      s.count("fallbacks." + p->name, n(Counter::kSweepResumeFallbacks));
    }
    s.time("prefix", prefix);
    s.time("rerun", rerun);
    s.time("probe", probe);
    s.count("checkpoints", checkpoints);
    s.count("forks", forks);
    s.count("fallbacks", fallbacks);

    double family_build = 0, family_size = 0;
    for (const auto& p : programs_) {
      const auto t0 = Clock::now();
      const Family family = p->build_family();
      family_build += seconds_since(t0);
      family_size += static_cast<double>(family.size());
    }
    s.time("family_build", family_build);
    s.count("family_size", family_size);

    // The isolation layer rides on this workload's traced run: the
    // sweep-isolated workload itself is not steady enough to gate
    // (README.md, "Noise").
    for (auto& v : isolated_.isolation_layers(s)) out.push_back(std::move(v));
    return out;
  }

  std::size_t verdicts_per_round() const override { return programs_.size(); }

 private:
  /// One program swept by Rader::check_exhaustive: its instance source, the
  /// family the probe sizes, and the same family as stacked single checks.
  struct Program {
    std::string name;
    std::unique_ptr<SweptProgram> source;
    std::function<void()> layer_instance;  // for the stacked passes
    std::string expected;
    rader::SerialEngine::Stats probe;
    std::vector<SpecPtr> family;
    std::vector<Check> checks;

    Program(const std::string& program, std::unique_ptr<SweptProgram> swept,
            const std::map<std::string, std::string>& answers)
        : name(program),
          source(std::move(swept)),
          layer_instance(source->instance()),
          expected(known_answer(answers, program + "/exhaustive/prefix")) {
      time_probe(layer_instance, &probe);
      const SpecPtr none = std::make_shared<rader::spec::NoSteal>();
      checks.push_back({name + "/probe", layer_instance, none,
                        Detector::kPeerSet});
      for (auto& spec : build_family()) {
        family.push_back(std::move(spec));
        checks.push_back({name + "/" + family.back()->describe(),
                          layer_instance, family.back(), Detector::kSpPlus});
      }
    }

    /// check_exhaustive's family: no-steals plus the O(KD + K^3) family,
    /// sized by the probe with its default caps.
    Family build_family() const {
      Family f;
      f.push_back(std::make_unique<rader::spec::NoSteal>());
      auto coverage = rader::spec::full_coverage_family(
          std::min<std::uint32_t>(probe.max_sync_block, 16),
          std::min<std::uint64_t>(probe.max_spawn_depth, 64));
      for (auto& spec : coverage) f.push_back(std::move(spec));
      return f;
    }

    /// One check_exhaustive verdict.  Both strategies must give the same
    /// answer, so both are checked against the prefix known answer.
    Verdict verdict(rader::SweepStrategy strategy) {
      rader::SweepOptions options;
      options.threads = kPrefixWorkers;
      options.strategy = strategy;
      const std::string check =
          name + (strategy == rader::SweepStrategy::kPrefix
                      ? "/exhaustive/prefix"
                      : "/exhaustive/rerun");
      rader::Rader::ExhaustiveResult result;
      Verdict v = timed_verdict(check, expected, [&] {
        result = rader::Rader::check_exhaustive(source->factory(), options);
        return result.spec_runs;
      });
      if (v.error.empty()) {
        v.answer = render_log(result.log);
        if (!result.failures.empty() || result.specs_skipped != 0 ||
            result.spec_runs != family.size()) {
          v.error = "sweep ran " + std::to_string(result.spec_runs) + " of " +
                    std::to_string(family.size()) + " family members";
        } else if (!source->outputs_ok()) {
          v.error = "program output failed its own check";
        }
      }
      return v;
    }
  };

  std::vector<std::unique_ptr<Program>> programs_;
  SweepIsolated isolated_;
};

// ---- Oracle cross-check ---------------------------------------------------

/// Run `program` under `spec` with SP+, Peer-Set and the DAG recorder on one
/// execution; require SP+'s racing addresses and (on the serial execution,
/// where the workloads run it) Peer-Set's racing reducers to equal the
/// oracle's.  Returns the two logs for rendering.
bool agrees_with_oracle(const std::string& label,
                        const std::function<void()>& program,
                        const rader::spec::StealSpec& spec,
                        rader::RaceLog& sp_log, rader::RaceLog& ps_log) {
  rader::SpPlusDetector spplus(&sp_log);
  rader::PeerSetDetector peerset(&ps_log);
  rader::dag::Recorder recorder;
  rader::ToolChain chain;
  chain.add(&spplus);
  chain.add(&peerset);
  chain.add(&recorder);
  rader::SerialEngine engine(&chain, &spec);
  engine.run(program);
  const auto oracle = rader::dag::run_oracle(recorder.dag());

  std::set<std::uintptr_t> sp_addrs;
  for (const auto& r : sp_log.determinacy_races()) sp_addrs.insert(r.addr);
  std::set<rader::ReducerId> ps_reducers;
  for (const auto& r : ps_log.view_read_races()) ps_reducers.insert(r.reducer);
  const std::set<std::uintptr_t> oracle_addrs(oracle.racing_addrs.begin(),
                                              oracle.racing_addrs.end());
  const std::set<rader::ReducerId> oracle_reducers(
      oracle.racing_reducers.begin(), oracle.racing_reducers.end());
  const bool serial = spec.describe() == "no-steals";
  const bool ok = sp_addrs == oracle_addrs &&
                  (!serial || ps_reducers == oracle_reducers);
  std::fprintf(stderr,
               "oracle  %-40s sp+ %zu/%zu addrs  peer-set %zu/%zu reducers  %s\n",
               label.c_str(), sp_addrs.size(), oracle_addrs.size(),
               ps_reducers.size(), oracle_reducers.size(),
               ok ? "agree" : "DISAGREE");
  return ok;
}

/// A rendered verdict against its known answer, printed either way.
bool answer_matches(const std::string& check, const std::string& rendered,
                    const std::map<std::string, std::string>& answers) {
  const std::string expected = known_answer(answers, check);
  const bool ok = rendered == expected;
  std::fprintf(stderr, "answer  %-40s %s\n", check.c_str(),
               ok ? "matches" : "MISMATCH");
  if (!ok) {
    std::fprintf(stderr, "  got:      %s\n  expected: %s\n", rendered.c_str(),
                 expected.c_str());
  }
  return ok;
}

}  // namespace

// ---- Series ---------------------------------------------------------------

double Series::t(const std::string& key) const {
  const auto it = times.find(key);
  if (it == times.end() || it->second.empty()) return 0;
  std::vector<double> v = it->second;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Series::c(const std::string& key) const {
  const auto it = counts.find(key);
  return it == counts.end() || it->second.empty() ? 0 : it->second.front();
}

std::vector<std::string> Series::drifting_counts() const {
  std::vector<std::string> out;
  for (const auto& [key, values] : counts) {
    if (std::any_of(values.begin(), values.end(),
                    [&](double v) { return v != values.front(); })) {
      out.push_back(key);
    }
  }
  return out;
}

// ---- Public entry points --------------------------------------------------

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {
      "detect-access", "detect-schedules", "sweep-prefix", "sweep-isolated"};
  return kNames;
}

std::unique_ptr<Workload> make_workload(
    const std::string& name, std::uint64_t seed, bool tiny,
    const std::map<std::string, std::string>& answers) {
  if (name == "detect-access") {
    return std::make_unique<DetectAccess>(tiny, answers);
  }
  if (name == "detect-schedules") {
    return std::make_unique<DetectSchedules>(seed, tiny, answers);
  }
  if (name == "sweep-prefix") {
    return std::make_unique<SweepPrefix>(seed, tiny, answers);
  }
  if (name == "sweep-isolated") {
    return std::make_unique<SweepIsolated>(seed, tiny, answers);
  }
  return nullptr;
}

std::vector<LayerMetric> layer_metrics(const Series& s) {
  const auto both_t = [&](const std::string& k) {
    return s.t("sp." + k) + s.t("ps." + k);
  };
  const auto both_c = [&](const std::string& k) {
    return s.c("sp." + k) + s.c("ps." + k);
  };
  double events = 0;
  for (const char* kind : kKindNames) events += both_c(std::string("events.") + kind);
  const auto self_ns = [&](const std::string& kind) {
    return ratio(s.t("sp.detector_ns." + kind) - s.t("sp.floor_ns." + kind),
                 s.c("sp.events." + kind));
  };
  const double per_verdict = s.c("verdicts_per_round");
  const double forks = s.c("forks");
  const bool isolated = s.times.count("isolated") != 0;

  return {
      {"runtime.uninstrumented_s", "s", ratio(both_t("none"), per_verdict)},
      {"runtime.spawns", "count", both_c("spawns")},
      {"runtime.steals", "count", both_c("steals")},
      {"runtime.reduces", "count", both_c("reduces")},
      {"tool.dispatch_ns", "ns",
       ratio((both_t("empty") - both_t("none")) * 1e9, events)},
      {"tool.events.access", "count", both_c("events.access")},
      {"tool.events.control", "count",
       both_c("events.control") + both_c("events.reduce")},
      {"tool.events.reducer_op", "count", both_c("events.reducer_op")},
      {"spplus.access_ns", "ns", self_ns("access")},
      {"spplus.control_ns", "ns", self_ns("control")},
      {"spplus.reduce_ns", "ns", self_ns("reduce")},
      {"peerset.self_s", "s",
       ratio((s.t("ps.detector_ns") - s.t("ps.floor_ns")) * 1e-9,
             s.c("ps.checks"))},
      {"shadow.granule_ns", "ns",
       ratio((s.t("sp.shadow") - s.t("sp.empty")) * 1e9, s.c("sp.granules"))},
      {"shadow.granules", "count", s.c("sp.granules")},
      {"shadow.pages_touched", "count", both_t("pages_touched")},
      {"shadow.pages_cow", "count", both_t("pages_cow")},
      {"dsu.finds_per_access", "ratio",
       ratio(s.c("sp.dsu_finds"), s.c("sp.accesses"))},
      {"race_report.dedup_ratio", "ratio",
       ratio(both_c("occurrences"), both_c("stored"))},
      {"spec.family_size", "count", s.c("family_size")},
      {"spec.family_build_s", "s", s.t("family_build")},
      {"sweep.probe_s", "s", s.t("probe")},
      {"sweep.checkpoints", "count", s.c("checkpoints")},
      {"sweep.resume_hit_ratio", "ratio",
       ratio(forks - s.c("fallbacks"), forks)},
      {"sweep.prefix_vs_rerun_x", "x", ratio(s.t("rerun"), s.t("prefix"))},
      {"isolation.tax_x", "x", ratio(s.t("isolated"), s.t("in_process"))},
      {"isolation.recovery_s", "s",
       isolated ? s.t("isolated_crash") - s.t("isolated") : 0.0},
      {"isolation.retries", "count", s.c("retries")},
      {"isolation.quarantined", "count", s.c("quarantined")},
      {"trace.overhead_x", "x", ratio(both_t("timed"), both_t("full"))},
  };
}

bool oracle_check(const std::map<std::string, std::string>& answers) {
  bool ok = true;

  // The racy program, on the two executions detect-schedules checks: its
  // race sets must be the oracle's, and its rendered verdicts (occurrence
  // counts included) the checked-in ones.
  rader::dag::RandomProgram rprog(rprog_params());
  const auto [lo, hi] = rprog.pool_range();
  const std::function<void()> rprog_run = [&rprog] { rprog(); };
  {
    rader::spec::NoSteal none;
    rader::spec::StealAll all;
    rader::RaceLog sp_log, ps_log, sp_all_log, ps_all_log;
    ok &= agrees_with_oracle("rprog/no-steals", rprog_run, none, sp_log, ps_log);
    ok &= agrees_with_oracle("rprog/steal-all", rprog_run, all, sp_all_log,
                             ps_all_log);
    ok &= answer_matches("rprog/peer-set", render_log(ps_log, {lo, hi}), answers);
    ok &= answer_matches("rprog/sp+/steal-all", render_log(sp_all_log, {lo, hi}),
                         answers);
  }

  // The race-free programs at oracle-sized inputs, under the workloads'
  // spec kinds: every member of check_exhaustive's family for fib, knapsack
  // and pbfs plus seeded check-reductions specs, and the whole Theorem-7
  // family for the synthetic program.  The oracle must find nothing.
  const auto clean = [&](const std::string& label,
                         const std::function<void()>& program,
                         const rader::spec::StealSpec& spec) {
    rader::RaceLog sp_log, ps_log;
    const bool agree = agrees_with_oracle(label, program, spec, sp_log, ps_log);
    return agree && !sp_log.any() && !ps_log.any();
  };
  for (const auto& [name, scale] :
       std::vector<std::pair<std::string, double>>{
           {"fib", 1.0 / 65536}, {"knapsack", 1.0 / 262144}, {"pbfs", 1e-4}}) {
    auto w = rader::apps::make_benchmark(name, scale);
    const auto stats = rader::run_serial(w.run);
    Family family;
    family.push_back(std::make_unique<rader::spec::NoSteal>());
    for (auto& spec : rader::spec::full_coverage_family(
             std::min<std::uint32_t>(stats.max_sync_block, 16),
             std::min<std::uint64_t>(stats.max_spawn_depth, 64))) {
      family.push_back(std::move(spec));
    }
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      family.push_back(std::make_unique<rader::spec::RandomTripleSteal>(
          mix64(seed ^ 0x6b6e6170ULL),
          std::max<std::uint32_t>(2, stats.max_sync_block)));
    }
    for (const auto& spec : family) {
      ok &= clean(name + "/" + spec->describe(), w.run, *spec);
      if (!w.verify()) {
        std::fprintf(stderr, "verify  %s output FAILED its own check\n",
                     name.c_str());
        ok = false;
      }
    }
  }
  SyntheticProgram synthetic(6, 24, 1);
  const std::function<void()> synthetic_run = [&synthetic] { synthetic(); };
  for (const auto& spec : rader::spec::reduce_coverage_family(6)) {
    ok &= clean("synthetic/" + spec->describe(), synthetic_run, *spec);
  }
  return ok;
}

}  // namespace perfbench
