// A per-execution completeness corner of Figure 6's single-slot shadow,
// found by differential fuzzing against the brute-force oracle.
//
// The pattern needs one location written by strands in three view contexts:
//
//   root:  spawn S
//          │   S: spawn B; (steal here → fresh view v₁)
//          │      spawn C { oblivious write ℓ }     // runs with v₁
//          │      sync                              // C joins: C → S's S-bag
//          │      oblivious write ℓ                 // (w₂) base view v₀
//          └─ continuation (not stolen, view v₀):
//             Update { view-aware write ℓ }         // (w₃)
//
// Per the paper's race conditions, (C's write, w₃) IS a determinacy race:
// they are logically parallel and associated with parallel views (v₁ vs
// v₀).  But Figure 6's shadow keeps ONE writer per location: at w₂ the
// prior writer C is in an S bag (in series via S's sync), so w₂ replaces
// it; at w₃ the stored writer w₂ sits in a P bag with view v₀ — the SAME
// view as w₃ — so the view-aware exemption fires and nothing is reported.
// The replacement was sound for plain SP-bags (pseudotransitivity of ‖),
// but the VIEW-ID dimension does not commute with it: the evicted writer
// had a different view than its series successor.
//
// Two mitigating facts, both verified here:
//   1. The Section-7 exhaustive family still reports the location — under
//      a spec that steals the root continuation, w₃ runs on a fresh view
//      and races with the stored writer, so family-level coverage (the
//      guarantee the paper actually deploys, §7–§8) is intact.
//   2. The brute-force oracle (and hence the fuzzer, tools/fuzz_detectors)
//      flags the single-execution miss, so the boundary is monitored.
//
// This mirrors the paper's own §10 observation that constant-space shadow
// state is information-theoretically tight: one slot per location cannot
// represent two live writers with distinct views.
#include <gtest/gtest.h>

#include "core/driver.hpp"
#include "dag/oracle.hpp"
#include "dag/recorder.hpp"
#include "reducers/reducer.hpp"
#include "runtime/api.hpp"
#include "runtime/serial_engine.hpp"

namespace rader {
namespace {

long g_slot = 0;

struct V {
  long v = 0;
};
struct v_monoid {
  using value_type = V;
  static V identity() { return {}; }
  static void reduce(V& l, V& r) { l.v += r.v; }
};

void corner_program_at(long* slot) {
  reducer<v_monoid> red;
  spawn([&] {  // frame S
    spawn([] {});
    spawn([slot] {  // C: executes on the stolen view's segment
      shadow_write(slot, 8, SrcTag{"oblivious write on stolen view"});
    });
    sync();
    shadow_write(slot, 8, SrcTag{"oblivious write on base view"});
  });
  red.update([&](V& view) {  // root continuation, base view when not stolen
    shadow_write(slot, 8, SrcTag{"view-aware write"});
    *slot += view.v;
  });
  sync();
}

void corner_program() { corner_program_at(&g_slot); }

TEST(ShadowSlotCorner, OracleSeesTheRaceInTheFixedExecution) {
  spec::DepthSteal inner(2);  // steal only S's inner continuation
  dag::Recorder recorder;
  SerialEngine engine(&recorder, &inner);
  engine.run([] { corner_program(); });
  const dag::OracleResult oracle = dag::run_oracle(recorder.dag());
  EXPECT_TRUE(oracle.any_determinacy);
  EXPECT_TRUE(oracle.racing_addrs.count(
                  reinterpret_cast<std::uintptr_t>(&g_slot)) > 0);
}

TEST(ShadowSlotCorner, Figure6SpPlusMissesItInThisExecution) {
  // Documented faithful-to-the-paper behavior: the single shadow slot
  // cannot hold both live writers, and the view-aware exemption fires on
  // the surviving (same-view) one.
  spec::DepthSteal inner(2);
  const RaceLog log =
      Rader::check_determinacy([] { corner_program(); }, inner);
  EXPECT_FALSE(log.any())
      << "if this now reports, the detector has been refined beyond "
         "Figure 6 — update the documentation in DESIGN.md";
}

TEST(ShadowSlotCorner, ExhaustiveFamilyStillReportsTheLocation) {
  const auto result =
      Rader::check_exhaustive(shared_program([] { corner_program(); }));
  bool found = false;
  for (const auto& race : result.log.determinacy_races()) {
    found |= race.addr >= reinterpret_cast<std::uintptr_t>(&g_slot) &&
             race.addr < reinterpret_cast<std::uintptr_t>(&g_slot) + 8;
  }
  EXPECT_TRUE(found) << "Section-7 family coverage must close the corner";
}

TEST(ShadowSlotCorner, ReusedDetectorRepeatsTheVerdictAcrossEpochClears) {
  // The packed shadow's clear() is an O(1) epoch bump, not a page wipe —
  // this corner is exactly the pattern that would expose a stale slot
  // surviving it: one leaked writer flips the single-slot verdict.  Reusing
  // ONE detector across runs (on_run_begin epoch-clears the shadow) must
  // reproduce the miss verdict and an identical report log every time.
  spec::DepthSteal inner(2);
  RaceLog log;
  SpPlusDetector detector(&log);
  std::string first_json;
  for (int run = 0; run < 3; ++run) {
    SerialEngine engine(&detector, &inner);
    engine.run([] { corner_program(); });
    EXPECT_FALSE(log.any()) << "run " << run
                            << ": stale shadow state leaked across clear()";
    if (run == 0) {
      first_json = log.to_json();
    } else {
      EXPECT_EQ(log.to_json(), first_json) << "run " << run;
    }
  }
}

TEST(ShadowSlotCorner, ParallelSweepStillReportsTheLocation) {
  // The same Section-7 guarantee through the parallel sweep engine: each
  // worker checks its own instance (own slot), so the report is recognized
  // by its access labels — every annotated access in the program targets the
  // per-instance slot, so any determinacy report IS at that location.
  const ProgramFactory factory = [] {
    auto slot = std::make_shared<long>(0);
    return std::function<void()>([slot] { corner_program_at(slot.get()); });
  };
  for (const unsigned threads : {1u, 4u}) {
    SweepOptions options;
    options.threads = threads;
    const auto result = Rader::check_exhaustive(factory, options);
    EXPECT_GT(result.log.determinacy_count(), 0u) << threads << " thread(s)";
    bool view_aware_write_flagged = false;
    for (const auto& race : result.log.determinacy_races()) {
      view_aware_write_flagged |= race.current_label == "view-aware write" ||
                                  race.current_label ==
                                      "oblivious write on base view" ||
                                  race.current_label ==
                                      "oblivious write on stolen view";
    }
    EXPECT_TRUE(view_aware_write_flagged)
        << "the family must elicit the slot race at every thread count";
  }
}

}  // namespace
}  // namespace rader
