// EngineCheckpoint round-trips and detector fork independence.
//
// The prefix-sharing sweep (core/sweep.hpp) is built on two promises:
//
//   1. SerialEngine::resume_from() on a recorded decision trail, starting
//      live delivery at a checkpointed point with a fork of the SP+
//      detector, produces a run byte-identical to the straight-line
//      execution — same race log, same stats, same reducer-view identity
//      minting, same simulated-worker stamping under tracing.
//   2. fork() gives SP+ (the one detector the sweep checkpoints) and the
//      copy-on-write PackedShadow an INDEPENDENT clone: events fed to one
//      side never leak into the other.
//
// These tests check both promises directly, without the sweep in between.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/spplus.hpp"
#include "reducers/monoid.hpp"
#include "reducers/reducer.hpp"
#include "runtime/api.hpp"
#include "runtime/serial_engine.hpp"
#include "shadow/packed_shadow.hpp"
#include "spec/steal_spec.hpp"
#include "support/metrics.hpp"
#include "support/profile.hpp"
#include "support/trace.hpp"
#include "tool/tool.hpp"

namespace rader {
namespace {

// Global arena so raced-on addresses are identical between the straight and
// the resumed execution (race-log JSON is compared byte-for-byte).
int g_slots[8];

/// A program with determinacy races on g_slots, reducer updates (identity
/// minting + merging under steals), and a view-read race (get_value in
/// parallel with updates) — every event class a resumed run must replay.
void checkpoint_program() {
  reducer<monoid::op_add<long>> sum(SrcTag{"ck sum"});
  for (int round = 0; round < 3; ++round) {
    spawn([&] {
      shadow_write(&g_slots[round], sizeof(int), SrcTag{"spawned write"});
      g_slots[round] = round;
      sum += round;
    });
    spawn([&] {
      shadow_write(&g_slots[round], sizeof(int), SrcTag{"sibling write"});
      g_slots[round] = -round;
      sum += 1;
    });
    shadow_read(&g_slots[round], sizeof(int), SrcTag{"continuation read"});
    (void)g_slots[round];
    // The mid-computation read races with the updates when a steal
    // separates them (view-read race for Peer-Set).
    (void)sum.get_value(SrcTag{"mid read"});
    sync();
  }
}

using ToolFactory = std::function<std::unique_ptr<SpPlusDetector>(RaceLog*)>;

struct NamedFactory {
  const char* name;
  ToolFactory make;
};

/// The forkable detectors: SP+, the only one the prefix sweep checkpoints.
std::vector<NamedFactory> detector_factories() {
  return {
      {"sp+",
       [](RaceLog* log) { return std::make_unique<SpPlusDetector>(log); }},
  };
}

struct StraightRun {
  RaceLog log;
  DecisionTrail trail;
  SerialEngine::Stats stats;
  // One checkpoint taken at `depth`, with the log and a frozen detector
  // fork captured exactly as the sweep's PrefixCheckpoint does.
  EngineCheckpoint ck;
  std::unique_ptr<SpPlusDetector> ck_tool;
  RaceLog ck_log;
  bool captured = false;
};

/// Run checkpoint_program straight through under `spec`, recording the
/// decision trail and capturing a checkpoint at continuation point `depth`.
void run_straight(const ToolFactory& make, const spec::StealSpec& spec,
                  std::size_t depth, StraightRun* out) {
  std::unique_ptr<SpPlusDetector> tool = make(&out->log);
  SerialEngine engine(tool.get(), &spec);
  engine.set_decision_trail(&out->trail);
  engine.set_point_hook([&](std::size_t idx, const spec::PointCtx&) {
    if (idx != depth || out->captured) return;
    engine.capture(&out->ck);
    out->ck_tool = tool->fork(nullptr);
    out->ck_log = out->log;
    out->captured = true;
  });
  engine.run([] { checkpoint_program(); });
  out->stats = engine.stats();
}

/// Fast-forward from the captured checkpoint and return the resumed log.
RaceLog run_resumed(const StraightRun& straight, const spec::StealSpec& spec,
                    SerialEngine::Stats* stats_out) {
  RaceLog log = straight.ck_log;
  std::unique_ptr<SpPlusDetector> tool = straight.ck_tool->fork(&log);
  SerialEngine engine(tool.get(), &spec);
  SerialEngine::ResumePlan plan;
  plan.replay = &straight.trail;
  plan.replay_count = straight.trail.size();
  plan.live_from = straight.ck.point;
  plan.expect = &straight.ck;
  engine.resume_from([] { checkpoint_program(); }, plan);
  *stats_out = engine.stats();
  return log;
}

void expect_stats_equal(const SerialEngine::Stats& a,
                        const SerialEngine::Stats& b, const char* what) {
  EXPECT_EQ(a.frames, b.frames) << what;
  EXPECT_EQ(a.spawns, b.spawns) << what;
  EXPECT_EQ(a.syncs, b.syncs) << what;
  EXPECT_EQ(a.steals, b.steals) << what;
  EXPECT_EQ(a.reduces, b.reduces) << what;
  EXPECT_EQ(a.user_reduces, b.user_reduces) << what;
  EXPECT_EQ(a.identities, b.identities) << what;
  EXPECT_EQ(a.accesses, b.accesses) << what;
  EXPECT_EQ(a.reducer_ops, b.reducer_ops) << what;
}

TEST(EngineCheckpoint, ResumeEqualsStraightLineForEveryDetector) {
  spec::StealAll all;
  for (const auto& factory : detector_factories()) {
    // Probe once for the trail length so checkpoint depths span the run.
    StraightRun probe;
    run_straight(factory.make, all, 1, &probe);
    ASSERT_TRUE(probe.captured) << factory.name;
    ASSERT_GE(probe.trail.size(), 6u) << factory.name;
    ASSERT_TRUE(probe.log.any()) << factory.name
                                 << ": corpus program must elicit races";

    for (const std::size_t depth :
         {std::size_t{1}, std::size_t{2}, probe.trail.size() / 2,
          probe.trail.size() - 1}) {
      StraightRun straight;
      run_straight(factory.make, all, depth, &straight);
      ASSERT_TRUE(straight.captured)
          << factory.name << " at depth " << depth;
      ASSERT_EQ(straight.ck.point, depth);

      SerialEngine::Stats resumed_stats;
      const RaceLog resumed = run_resumed(straight, all, &resumed_stats);
      EXPECT_EQ(resumed.to_json(), straight.log.to_json())
          << factory.name << " at depth " << depth;
      expect_stats_equal(resumed_stats, straight.stats, factory.name);
    }
  }
}

TEST(EngineCheckpoint, ResumeRegeneratesViewIdentitiesAndTraceWorkers) {
  // Under tracing, steals advance the simulated-worker allocator; the
  // checkpoint records it and resume must regenerate the same stamping.
  trace::Session session;
  TraceScope scope(&session, "checkpoint-test");
  spec::StealAll all;
  const auto factory = detector_factories().front();

  StraightRun straight;
  run_straight(factory.make, all, 3, &straight);
  ASSERT_TRUE(straight.captured);
  ASSERT_GT(straight.stats.identities, 0u)
      << "corpus program must mint identity views";
  ASSERT_GT(straight.ck.next_sim_worker, 1u)
      << "checkpoint must land after at least one traced steal";

  SerialEngine::Stats resumed_stats;
  const RaceLog resumed = run_resumed(straight, all, &resumed_stats);
  EXPECT_EQ(resumed.to_json(), straight.log.to_json());
  expect_stats_equal(resumed_stats, straight.stats, "traced resume");
}

TEST(EngineCheckpoint, CheckpointCapturesReducerViewMap) {
  spec::StealAll all;
  StraightRun straight;
  run_straight(detector_factories().front().make, all, 4, &straight);
  ASSERT_TRUE(straight.captured);
  // The checkpoint's epoch stack mirrors the live engine's at that point:
  // base epoch plus one per un-merged steal, reducers recorded per epoch.
  ASSERT_EQ(straight.ck.epoch_vids.size(), straight.ck.epoch_reducers.size());
  ASSERT_GE(straight.ck.epoch_vids.size(), 1u);
  EXPECT_EQ(straight.ck.epoch_vids.front(), 0u) << "base epoch is view 0";
  EXPECT_FALSE(straight.ck.frames.empty());
  EXPECT_GT(straight.ck.stats.frames, 0u);
  EXPECT_EQ(straight.ck.point, 4u);
}

void expect_ctx_equal(const spec::PointCtx& got, const spec::PointCtx& want,
                      std::size_t idx) {
  EXPECT_EQ(got.frame, want.frame) << "point " << idx;
  EXPECT_EQ(got.sync_block, want.sync_block) << "point " << idx;
  EXPECT_EQ(got.cont_index, want.cont_index) << "point " << idx;
  EXPECT_EQ(got.spawn_depth, want.spawn_depth) << "point " << idx;
  EXPECT_EQ(got.live_epochs, want.live_epochs) << "point " << idx;
}

/// Steals everywhere and merges at each block's second continuation, so a
/// context read after the merges would differ in live_epochs.
class StealAndMerge final : public spec::StealSpec {
 public:
  bool steal(const spec::PointCtx&) const override { return true; }
  std::uint32_t merges_now(const spec::PointCtx& ctx) const override {
    return ctx.cont_index == 1 ? 1 : 0;
  }
  std::string describe() const override { return "steal-and-merge"; }
};

TEST(EngineCheckpoint, PointHookSeesTheRecordedContext) {
  // The prefix sweep evaluates later family members on the context the hook
  // receives, so it must be exactly the one the specification is consulted
  // with (before the point's merges) — at every live point of fresh and
  // resumed runs alike.
  StealAndMerge merging;
  StraightRun straight;
  run_straight(detector_factories().front().make, merging, 2, &straight);
  ASSERT_TRUE(straight.captured);
  const DecisionTrail& trail = straight.trail;
  ASSERT_GE(trail.size(), 6u);
  ASSERT_TRUE(std::any_of(trail.begin(), trail.end(),
                          [](const PointDecision& d) { return d.merges > 0; }))
      << "the spec must merge somewhere";

  struct Seen {
    std::size_t idx;
    spec::PointCtx ctx;
  };
  const auto record = [](std::vector<Seen>* seen) {
    return [seen](std::size_t idx, const spec::PointCtx& ctx) {
      seen->push_back({idx, ctx});
    };
  };
  const auto expect_matches = [&](const std::vector<Seen>& seen,
                                  std::size_t live_from) {
    ASSERT_EQ(seen.size(), trail.size() - live_from);
    for (std::size_t n = 0; n < seen.size(); ++n) {
      ASSERT_EQ(seen[n].idx, live_from + n);
      expect_ctx_equal(seen[n].ctx, trail[seen[n].idx].ctx, seen[n].idx);
    }
  };

  std::vector<Seen> fresh;
  {
    RaceLog log;
    SpPlusDetector detector(&log);
    SerialEngine engine(&detector, &merging);
    engine.set_point_hook(record(&fresh));
    engine.run([] { checkpoint_program(); });
  }
  expect_matches(fresh, 0);

  std::vector<Seen> resumed;
  {
    RaceLog log = straight.ck_log;
    std::unique_ptr<SpPlusDetector> tool = straight.ck_tool->fork(&log);
    SerialEngine engine(tool.get(), &merging);
    engine.set_point_hook(record(&resumed));
    SerialEngine::ResumePlan plan;
    plan.replay = &trail;
    plan.replay_count = trail.size();
    plan.live_from = straight.ck.point;
    plan.expect = &straight.ck;
    engine.resume_from([] { checkpoint_program(); }, plan);
  }
  expect_matches(resumed, straight.ck.point);
}

TEST(EngineCheckpoint, ResumeGoesLiveAtTheFirstPoint) {
  // A checkpoint at point 0 holds everything before the first continuation;
  // resuming there delivers only the rest.
  spec::StealAll all;
  for (const auto& factory : detector_factories()) {
    StraightRun straight;
    run_straight(factory.make, all, 0, &straight);
    ASSERT_TRUE(straight.captured) << factory.name;
    ASSERT_EQ(straight.ck.point, 0u) << factory.name;
    SerialEngine::Stats resumed_stats;
    const RaceLog resumed = run_resumed(straight, all, &resumed_stats);
    EXPECT_EQ(resumed.to_json(), straight.log.to_json()) << factory.name;
    expect_stats_equal(resumed_stats, straight.stats, factory.name);
  }
}

// A resumed run's "replay" phase covers the fast-forward only: the run
// closes it when it goes live, so no phase is left open when resume_from
// returns, while the engine is still alive.
TEST(EngineCheckpoint, ReplayPhaseClosesWhenTheRunGoesLive) {
  spec::StealAll all;
  StraightRun straight;
  run_straight(detector_factories().front().make, all, 3, &straight);
  ASSERT_TRUE(straight.captured);
  prof::Profiler profiler;
  obs::Scope scope(&profiler);
  RaceLog log = straight.ck_log;
  std::unique_ptr<SpPlusDetector> tool = straight.ck_tool->fork(&log);
  SerialEngine engine(tool.get(), &all);
  SerialEngine::ResumePlan plan;
  plan.replay = &straight.trail;
  plan.replay_count = straight.trail.size();
  plan.live_from = straight.ck.point;
  plan.expect = &straight.ck;
  engine.resume_from([] { checkpoint_program(); }, plan);
  EXPECT_EQ(profiler.current_node(), &profiler.root());
  ASSERT_EQ(profiler.root().children.size(), 1u);
  EXPECT_STREQ(profiler.root().children[0]->name, "replay");
  EXPECT_EQ(profiler.root().children[0]->count, 1u);
}

// Counts every callback; attached to a resume, it stands in for the fork.
class CallbackCounter final : public Tool {
 public:
  std::size_t calls = 0;

  void on_run_begin() override { ++calls; }
  void on_run_end() override { ++calls; }
  void on_frame_enter(FrameId, FrameId, FrameKind, ViewId) override {
    ++calls;
  }
  void on_frame_return(FrameId, FrameId, FrameKind) override { ++calls; }
  void on_sync(FrameId) override { ++calls; }
  void on_steal(FrameId, std::uint32_t, ViewId) override { ++calls; }
  void on_reduce(FrameId, ViewId, ViewId) override { ++calls; }
  void on_access(AccessKind, std::uintptr_t, std::size_t, bool, ViewId,
                 SrcTag) override {
    ++calls;
  }
  void on_reducer_op(ReducerOp, ReducerId, SrcTag) override { ++calls; }
  void on_clear(std::uintptr_t, std::size_t) override { ++calls; }
};

int g_drift_runs = 0;

/// Writes a different slot on every run, as pbfs's heap-allocated state
/// lands elsewhere from one run to the next, so a resume can never verify.
/// Its reducer's destructor runs while the divergence unwinds.
void drifting_program() {
  reducer<monoid::op_add<long>> sum(SrcTag{"drift sum"});
  const int slot = g_drift_runs++ % 8;
  shadow_write(&g_slots[slot], sizeof(int), SrcTag{"drifting write"});
  for (int i = 0; i < 3; ++i) {
    spawn([&] { sum += 1; });
  }
  sync();
}

// A resume whose go-live verification fails delivers nothing: the fork gets
// no callback, neither before the throw nor while it unwinds the user frames.
TEST(EngineCheckpoint, DivergedResumeDeliversNoCallback) {
  spec::StealAll all;
  CallbackCounter straight_tool;
  DecisionTrail trail;
  EngineCheckpoint ck;
  bool captured = false;
  {
    SerialEngine engine(&straight_tool, &all);
    engine.set_decision_trail(&trail);
    engine.set_point_hook([&](std::size_t idx, const spec::PointCtx&) {
      if (idx != 1 || captured) return;
      engine.capture(&ck);
      captured = true;
    });
    engine.run([] { drifting_program(); });
  }
  ASSERT_TRUE(captured);

  CallbackCounter fork;
  SerialEngine engine(&fork, &all);
  SerialEngine::ResumePlan plan;
  plan.replay = &trail;
  plan.replay_count = trail.size();
  plan.live_from = ck.point;
  plan.expect = &ck;
  EXPECT_THROW(engine.resume_from([] { drifting_program(); }, plan),
               ResumeDiverged);
  EXPECT_EQ(fork.calls, 0u);
}

TEST(DetectorFork, ForkedDetectorIsIndependentOfTheOriginal) {
  // Fork a frozen checkpoint twice and resume through each fork in turn.
  // Each resumed run must report exactly what the straight run reports —
  // the first resume must not contaminate the frozen parent that the
  // second resume forks from.
  for (const auto& factory : detector_factories()) {
    spec::StealAll all;

    // Straight baseline.
    RaceLog base_all;
    {
      std::unique_ptr<Tool> tool = factory.make(&base_all);
      SerialEngine engine(tool.get(), &all);
      engine.run([] { checkpoint_program(); });
    }

    // Trail + checkpoint under StealAll.
    StraightRun straight;
    run_straight(factory.make, all, 2, &straight);
    ASSERT_TRUE(straight.captured) << factory.name;

    // Resume the fork twice; runs must not contaminate each other.
    SerialEngine::Stats s1, s2;
    const RaceLog first = run_resumed(straight, all, &s1);
    const RaceLog second = run_resumed(straight, all, &s2);
    EXPECT_EQ(first.to_json(), straight.log.to_json()) << factory.name;
    EXPECT_EQ(second.to_json(), straight.log.to_json()) << factory.name;
    EXPECT_EQ(base_all.to_json(), straight.log.to_json()) << factory.name;
  }
}

TEST(PackedShadowFork, CopyOnWriteForksAreIndependent) {
  metrics::Registry reg;
  metrics::Scope scope(&reg);

  // Granules 0x1000 and 0x2000 sit on different pages of one chunk.
  shadow::PackedShadow space;
  space.set_writer(0x1000, 7);
  space.set_writer(0x2000, 9);

  shadow::PackedShadow forked = space.fork();
  ASSERT_EQ(forked.writer(0x1000), 7u);
  ASSERT_EQ(forked.writer(0x2000), 9u);

  // Writes on either side un-share the touched page only.
  const std::uint64_t cow_before =
      reg.snapshot().counter(metrics::Counter::kShadowPagesCoW);
  forked.set_writer(0x1000, 42);
  space.set_writer(0x2000, 13);
  EXPECT_EQ(space.writer(0x1000), 7u);
  EXPECT_EQ(forked.writer(0x1000), 42u);
  EXPECT_EQ(forked.writer(0x2000), 9u);
  EXPECT_EQ(space.writer(0x2000), 13u);
  const std::uint64_t cow_after =
      reg.snapshot().counter(metrics::Counter::kShadowPagesCoW);
  EXPECT_GE(cow_after, cow_before + 2) << "both writes must copy a page";

  // A second fork of the (now partially un-shared) space still snapshots.
  shadow::PackedShadow again = space.fork();
  EXPECT_EQ(again.writer(0x1000), 7u);
  EXPECT_EQ(again.writer(0x2000), 13u);
}

}  // namespace
}  // namespace rader
