// Reducer binding across runs, engines and an abandoned resume.
//
// A reducer created before a run is bound to a run on first contact, and
// the serial engine caches that binding in the reducer itself, tagged with
// the run.  The cache is shared by every engine that touches the reducer,
// so these cases reuse one pre-run reducer where caches go stale: two
// engines taking turns, a second engine run nested inside the first, and a
// run after a ResumeDiverged recovery.  Each must observe exactly what a
// run on a never-bound reducer observes — value, events and reports.
#include <gtest/gtest.h>

#include <new>
#include <string>

#include "core/peerset.hpp"
#include "core/race_report.hpp"
#include "core/spplus.hpp"
#include "reducers/monoid.hpp"
#include "reducers/reducer.hpp"
#include "runtime/api.hpp"
#include "runtime/serial_engine.hpp"
#include "spec/steal_spec.hpp"
#include "tool/tool.hpp"
#include "../test_util.hpp"

namespace rader {
namespace {

using Str = reducer<monoid::string_append>;

int g_cell;  // raced on by binding_program

/// Updates under steals (identity views, merges), get_values in a spawned
/// child and its continuation (a view-read race) and a write race on
/// g_cell.
void binding_program(Str& r) {
  for (int round = 0; round < 2; ++round) {
    spawn([&] {
      r.update([](std::string& s) {
        shadow_write(&s, sizeof s);
        s += "x";
      });
      (void)r.get_value(SrcTag{"child read"});
      shadow_write(&g_cell, sizeof g_cell, SrcTag{"child write"});
    });
    r.update([](std::string& s) {
      shadow_write(&s, sizeof s);
      s += "y";
    });
    (void)r.get_value(SrcTag{"mid read"});
    shadow_write(&g_cell, sizeof g_cell, SrcTag{"continuation write"});
    sync();
  }
}

struct Observation {
  std::string value;
  std::string events;
  std::string peerset;
  std::string spplus;
};

void expect_same(const Observation& got, const Observation& want,
                 const char* what) {
  EXPECT_EQ(got.value, want.value) << what;
  EXPECT_EQ(got.events, want.events) << what;
  EXPECT_EQ(got.peerset, want.peerset) << what;
  EXPECT_EQ(got.spplus, want.spplus) << what;
}

/// An engine under StealAll with an event log and both detectors attached.
struct Observed {
  testing::EventLogTool events;
  RaceLog ps_log, sp_log;
  PeerSetDetector ps{&ps_log};
  SpPlusDetector sp{&sp_log};
  ToolChain chain;
  spec::StealAll all;
  SerialEngine engine{&chain, &all};

  Observed() {
    chain.add(&events);
    chain.add(&ps);
    chain.add(&sp);
  }

  void reset() {
    ps_log.clear();
    sp_log.clear();
  }

  Observation take(std::string value) const {
    return {std::move(value), events.joined(), ps_log.to_json(),
            sp_log.to_json()};
  }

  /// Run binding_program on `r`, starting from an empty value.
  Observation observe(Str& r) {
    r.set_value("");  // no engine installed: a plain store
    reset();
    engine.run([&] { binding_program(r); });
    return take(r.get_value());
  }
};

/// Storage reused by every reducer a case constructs, so reports that name
/// the leftmost view's address compare equal across reducers.
class ReducerSlot {
 public:
  Str& make() {
    destroy();
    live_ = new (buf_) Str(SrcTag{"binding reducer"});
    return *live_;
  }
  void destroy() {
    if (live_ != nullptr) live_->~Str();
    live_ = nullptr;
  }
  ~ReducerSlot() { destroy(); }

 private:
  alignas(Str) unsigned char buf_[sizeof(Str)];
  Str* live_ = nullptr;
};

/// What a never-bound reducer in `slot` observes on a fresh engine.
Observation fresh_observation(ReducerSlot& slot) {
  Observed fresh;
  return fresh.observe(slot.make());
}

TEST(ReducerBinding, TwoEnginesTakingTurnsMatchAFreshRun) {
  ReducerSlot slot;
  const Observation want = fresh_observation(slot);
  ASSERT_NE(want.peerset.find("mid read"), std::string::npos)
      << "the program must produce a view-read race";
  ASSERT_NE(want.spplus.find("continuation write"), std::string::npos)
      << "the program must produce a determinacy race";

  Str& r = slot.make();
  Observed a, b;
  expect_same(a.observe(r), want, "engine A, first run");
  expect_same(b.observe(r), want, "engine B after A");
  expect_same(a.observe(r), want, "engine A after B");
  expect_same(a.observe(r), want, "engine A again");
  expect_same(b.observe(r), want, "engine B after A's second run");
}

TEST(ReducerBinding, ANestedEngineRunDoesNotRebindTheOuterRun) {
  // The outer run binds the reducer, an inner engine run on the same
  // thread binds it again (overwriting the cache), and the outer run then
  // keeps using it.  Baseline: the same nesting with the inner run working
  // on a different reducer, so neither run shares a reducer.
  ReducerSlot slot, other_slot;
  auto outer_program = [](Observed& outer, Observed& inner, Str& r,
                          Str& inner_r, Observation* inner_obs) {
    r.set_value("");
    inner_r.set_value("");
    outer.reset();
    outer.engine.run([&] {
      r.update([](std::string& s) { s += "o"; });
      inner.reset();
      std::string inner_value;
      inner.engine.run([&] {
        binding_program(inner_r);
        inner_value = inner_r.get_value();
      });
      *inner_obs = inner.take(inner_value);
      binding_program(r);
    });
    return outer.take(r.get_value());
  };

  Observation base_inner;
  Observation base_outer;
  {
    Observed outer, inner;
    Str& r = slot.make();
    Str& q = other_slot.make();
    base_outer = outer_program(outer, inner, r, q, &base_inner);
  }
  Observed outer, inner;
  Str& r = slot.make();
  Observation got_inner;
  const Observation got_outer = outer_program(outer, inner, r, r, &got_inner);

  // The outer run sees what it saw without sharing: one binding (h0), the
  // same events and reports.  Its value also holds the inner run's updates.
  EXPECT_EQ(got_outer.events, base_outer.events);
  EXPECT_EQ(got_outer.peerset, base_outer.peerset);
  EXPECT_EQ(got_outer.spplus, base_outer.spplus);
  EXPECT_EQ(got_outer.events.find("h1"), std::string::npos);
  EXPECT_EQ(got_outer.value, "o" + base_inner.value + base_inner.value);
  EXPECT_EQ(base_outer.value, "o" + base_inner.value);
  // The inner run bound the reducer as its own first contact.
  EXPECT_EQ(got_inner.events, base_inner.events);
  EXPECT_EQ(got_inner.value, "o" + base_inner.value);
}

TEST(ReducerBinding, ARunAfterResumeDivergedMatchesAFreshRun) {
  ReducerSlot slot;
  const Observation want = fresh_observation(slot);

  Str& r = slot.make();
  Observed e;
  DecisionTrail trail;
  e.engine.set_decision_trail(&trail);
  expect_same(e.observe(r), want, "recording run");
  e.engine.set_decision_trail(nullptr);
  ASSERT_GE(trail.size(), 2u);

  // Point 0 matches the trail (root frame, first spawn), so its steal is
  // replayed; the reducer is then first touched under the stolen epoch
  // (leftmost view into the base epoch, identity view on top), and the
  // called frame's point no longer matches the trail.  The divergence
  // comes before the plan goes live, so the tools see none of it.
  SerialEngine::ResumePlan plan;
  plan.replay = &trail;
  plan.replay_count = trail.size();
  plan.live_from = trail.size();
  EXPECT_THROW(e.engine.resume_from(
                   [&] {
                     spawn([] {});
                     r.update([](std::string& s) { s += "w"; });
                     call([] { spawn([] {}); });
                   },
                   plan),
               ResumeDiverged);

  expect_same(e.observe(r), want, "same engine after the recovery");
  Observed other;
  expect_same(other.observe(r), want, "another engine after the recovery");
}

}  // namespace
}  // namespace rader
