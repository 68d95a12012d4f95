// Parallel-vs-serial Peer-Set equivalence: check_parallel must report the
// EXACT race log of a serial no-steal Peer-Set run — same reducer ids, same
// frame ids, same labels, same occurrence counts, same stored order — at
// every worker count, on the whole litmus suite, on random programs, and on
// the fuzzer's distilled reproducer corpus.  This is the tentpole contract
// of the shard replay design (tool/shard.hpp): the event stream worker 0
// replays is byte-identical to the serial projection's, so anything short of
// exact equality is a splice-order or renumbering bug.  The last case
// checks the stream itself, callback by callback, not just its verdicts.
//
// Built twice (tests/CMakeLists.txt): the fast gate runs a small random
// batch, the stress tier the full 200-program battery; the
// RADER_PAR_EQ_PROGRAMS environment variable overrides either.
//
// NOT part of the sched/TSan label on purpose: random programs and several
// litmus cases contain deliberate data races (torn pool writes, raw-view
// pokes) that are the detector's subject matter, not bugs in the engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <tuple>
#include <vector>

#include "../litmus/litmus_cases.hpp"
#include "core/driver.hpp"
#include "dag/program_serial.hpp"
#include "dag/random_program.hpp"
#include "fuzz/differ.hpp"
#include "runtime/run.hpp"
#include "sched/parallel_engine.hpp"
#include "spec/steal_spec.hpp"
#include "tool/tool.hpp"

#ifndef RADER_PAR_EQ_DEFAULT
#define RADER_PAR_EQ_DEFAULT 8
#endif
#ifndef RADER_FUZZ_CORPUS_DIR
#error "RADER_FUZZ_CORPUS_DIR must point at tests/fuzz/corpus"
#endif

namespace rader {
namespace {

constexpr unsigned kJobs[] = {1, 2, 4, 8};

// The one litmus case that is undefined behavior on a REAL parallel engine:
// it destroys the reducer while a spawned updater is still running, so the
// updater's `*sum += 1` is a use-after-free when the child executes on
// another worker.  The serial engines merely simulate the schedule and can
// report the misuse safely; the parallel engine actually executes it.
constexpr const char* kUnsafeUnderRealParallelism = "destroy-before-sync";

using RaceTuple = std::tuple<ReducerId, FrameId, FrameId, std::string,
                             std::string, std::uint64_t>;

std::vector<RaceTuple> race_tuples(const RaceLog& log) {
  std::vector<RaceTuple> out;
  for (const ViewReadRace& r : log.view_read_races()) {
    out.emplace_back(r.reducer, r.prior_frame, r.current_frame, r.prior_label,
                     r.current_label, r.occurrences);
  }
  return out;
}

std::size_t program_count() {
  if (const char* env = std::getenv("RADER_PAR_EQ_PROGRAMS")) {
    const unsigned long n = std::strtoul(env, nullptr, 10);
    if (n > 0) return n;
  }
  return RADER_PAR_EQ_DEFAULT;
}

// Every callback the parallel engine delivers, with its arguments, one line
// each.  on_access and on_clear are not recorded: the parallel engine
// records neither (sched/parallel_engine.hpp).
class StreamRecorder final : public Tool {
 public:
  std::vector<std::string> lines;

  void on_run_begin() override { lines.push_back("run_begin"); }
  void on_run_end() override { lines.push_back("run_end"); }
  void on_frame_enter(FrameId f, FrameId p, FrameKind k, ViewId v) override {
    add("enter", f, p, static_cast<int>(k), v);
  }
  void on_frame_return(FrameId f, FrameId p, FrameKind k) override {
    add("return", f, p, static_cast<int>(k));
  }
  void on_sync(FrameId f) override { add("sync", f); }
  void on_steal(FrameId f, std::uint32_t c, ViewId v) override {
    add("steal", f, c, v);
  }
  void on_reduce(FrameId f, ViewId l, ViewId r) override {
    add("reduce", f, l, r);
  }
  void on_reducer_op(ReducerOp op, ReducerId h, SrcTag tag) override {
    add("reducer_op", static_cast<int>(op), h);
    lines.back() += std::string(" ") + tag.label;
  }

 private:
  template <typename... Args>
  void add(const char* name, Args... args) {
    std::string line = name;
    ((line += " " + std::to_string(args)), ...);
    lines.push_back(std::move(line));
  }
};

template <typename Program>
std::vector<std::string> serial_stream(Program& program) {
  StreamRecorder recorder;
  spec::NoSteal no_steal;
  run_serial([&] { program(); }, &recorder, &no_steal);
  return std::move(recorder.lines);
}

template <typename Program>
std::vector<std::string> parallel_stream(Program& program, unsigned jobs) {
  StreamRecorder recorder;
  ParallelEngine engine(jobs);
  engine.set_tool(&recorder);
  engine.run([&] { program(); });
  return std::move(recorder.lines);
}

// Reports the first differing callback rather than two whole streams.
void expect_same_stream(const std::vector<std::string>& serial,
                        const std::vector<std::string>& par, unsigned jobs) {
  const std::size_t n = std::min(serial.size(), par.size());
  std::size_t i = 0;
  while (i < n && serial[i] == par[i]) ++i;
  if (i == n && serial.size() == par.size()) return;
  ADD_FAILURE() << "jobs=" << jobs << ": streams differ at callback " << i
                << " of " << serial.size() << " (serial) / " << par.size()
                << " (parallel): serial \""
                << (i < serial.size() ? serial[i] : "<end>")
                << "\", parallel \"" << (i < par.size() ? par[i] : "<end>")
                << "\"";
}

TEST(ParallelEquivalence, LitmusSuiteIsExactAtEveryJobsValue) {
  std::size_t checked = 0;
  for (const litmus::Case& c : litmus::all_cases()) {
    if (c.name == kUnsafeUnderRealParallelism) continue;
    SCOPED_TRACE(c.name + " — " + c.why);
    const RaceLog serial = Rader::check_view_read([&] { c.program(); });
    EXPECT_EQ(serial.view_read_count() > 0, c.peerset);
    for (const unsigned jobs : kJobs) {
      const RaceLog par = Rader::check_parallel([&] { c.program(); }, jobs);
      EXPECT_EQ(par.view_read_count(), serial.view_read_count())
          << "jobs=" << jobs;
      EXPECT_EQ(race_tuples(par), race_tuples(serial)) << "jobs=" << jobs;
    }
    ++checked;
  }
  EXPECT_GE(checked, 20u) << "litmus corpus shrank unexpectedly";
}

TEST(ParallelEquivalence, RandomProgramsAreExactAtEveryJobsValue) {
  const std::size_t n = program_count();
  std::size_t racy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const dag::RandomProgramParams params =
        fuzz::fuzz_params(/*seed=*/0x9a7a11e1u + 17 * i);
    dag::RandomProgram program(params);
    SCOPED_TRACE("seed=" + std::to_string(params.seed) +
                 " actions=" + std::to_string(program.action_count()));
    const RaceLog serial = Rader::check_view_read([&] { program(); });
    if (serial.view_read_count() > 0) ++racy;
    for (const unsigned jobs : kJobs) {
      const RaceLog par = Rader::check_parallel([&] { program(); }, jobs);
      EXPECT_EQ(par.view_read_count(), serial.view_read_count())
          << "jobs=" << jobs;
      EXPECT_EQ(race_tuples(par), race_tuples(serial)) << "jobs=" << jobs;
    }
    // One-worker schedules are deterministic, so the reducer arithmetic must
    // be too (raw-view actions make cross-schedule totals uncomparable, but
    // a FIXED schedule replayed twice has exactly one meaning).
    long first_total = 0;
    {
      const RaceLog unused = Rader::check_parallel([&] { program(); }, 1);
      (void)unused;
      first_total = program.reducer_total();
    }
    const RaceLog unused = Rader::check_parallel([&] { program(); }, 1);
    (void)unused;
    EXPECT_EQ(program.reducer_total(), first_total);
  }
  // Non-vacuity: the batch must actually exercise the view-read reporting
  // path, not just compare empty logs.
  EXPECT_GT(racy, 0u) << "no random program produced a view-read race; "
                         "reseed the batch";
}

TEST(ParallelEquivalence, FuzzCorpusReplaysAreExactAtEveryJobsValue) {
  const char* kCorpusFiles[] = {
      "fig6_shadow_slot.rprog",
      "view_read_race.rprog",
      "reduce_vs_oblivious.rprog",
  };
  for (const char* name : kCorpusFiles) {
    std::string error;
    auto repro = dag::load_reproducer(
        std::string(RADER_FUZZ_CORPUS_DIR) + "/" + name, &error);
    ASSERT_TRUE(repro.has_value()) << name << ": " << error;
    dag::RandomProgram program(repro->tree, repro->params);
    SCOPED_TRACE(name);
    const RaceLog serial = Rader::check_view_read([&] { program(); });
    for (const unsigned jobs : kJobs) {
      const RaceLog par = Rader::check_parallel([&] { program(); }, jobs);
      EXPECT_EQ(par.view_read_count(), serial.view_read_count())
          << "jobs=" << jobs;
      EXPECT_EQ(race_tuples(par), race_tuples(serial)) << "jobs=" << jobs;
    }
  }
}

// The replayed stream is the serial no-steal stream, callback by callback
// and argument by argument, on the same inputs as the verdict checks above.
TEST(ParallelEquivalence, ReplayedStreamEqualsTheSerialStream) {
  std::size_t litmus = 0;
  for (const litmus::Case& c : litmus::all_cases()) {
    if (c.name == kUnsafeUnderRealParallelism) continue;
    SCOPED_TRACE(c.name);
    const auto serial = serial_stream(c.program);
    for (const unsigned jobs : kJobs) {
      expect_same_stream(serial, parallel_stream(c.program, jobs), jobs);
    }
    ++litmus;
  }
  EXPECT_GE(litmus, 20u) << "litmus corpus shrank unexpectedly";

  const std::size_t n = program_count();
  for (std::size_t i = 0; i < n; ++i) {
    const dag::RandomProgramParams params =
        fuzz::fuzz_params(/*seed=*/0x9a7a11e1u + 17 * i);
    dag::RandomProgram program(params);
    SCOPED_TRACE("seed=" + std::to_string(params.seed));
    const auto serial = serial_stream(program);
    for (const unsigned jobs : kJobs) {
      expect_same_stream(serial, parallel_stream(program, jobs), jobs);
    }
  }

  for (const char* name : {"fig6_shadow_slot.rprog", "view_read_race.rprog",
                           "reduce_vs_oblivious.rprog"}) {
    std::string error;
    auto repro = dag::load_reproducer(
        std::string(RADER_FUZZ_CORPUS_DIR) + "/" + name, &error);
    ASSERT_TRUE(repro.has_value()) << name << ": " << error;
    dag::RandomProgram program(repro->tree, repro->params);
    SCOPED_TRACE(name);
    const auto serial = serial_stream(program);
    for (const unsigned jobs : kJobs) {
      expect_same_stream(serial, parallel_stream(program, jobs), jobs);
    }
  }
}

}  // namespace
}  // namespace rader
