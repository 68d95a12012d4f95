// view_arena floor promotion is scoped, not forever: outside-run allocations
// (program fixtures) raise the rewind floor only while the enclosing
// view_arena::Scope lives.  Before the Scope existed, every sweep's fixture
// permanently raised its worker thread's floor — a long-lived process
// sweeping repeatedly grew each worker's arena monotonically, one fixture
// per sweep.  The 1000-sweep regression below pins the fix.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/sweep.hpp"
#include "reducers/monoid.hpp"
#include "reducers/reducer.hpp"
#include "runtime/api.hpp"
#include "runtime/serial_engine.hpp"
#include "runtime/view_arena.hpp"
#include "spec/steal_spec.hpp"

namespace rader {
namespace {

TEST(ViewArenaScope, RestoresCursorAndFloorOnExit) {
  const std::size_t floor0 = view_arena::permanent_bytes();
  const std::size_t use0 = view_arena::bytes_in_use();
  {
    view_arena::Scope scope;
    // No engine installed: the allocation is promoted to the floor...
    void* p = view_arena::allocate(64, 8);
    ASSERT_NE(p, nullptr);
    EXPECT_GE(view_arena::permanent_bytes(), floor0 + 64);
    EXPECT_GE(view_arena::bytes_in_use(), use0 + 64);
  }
  // ...but only until the scope exits.
  EXPECT_EQ(view_arena::permanent_bytes(), floor0);
  EXPECT_EQ(view_arena::bytes_in_use(), use0);
}

TEST(ViewArenaScope, NestsLikeStackFrames) {
  const std::size_t floor0 = view_arena::permanent_bytes();
  {
    view_arena::Scope outer;
    (void)view_arena::allocate(32, 8);
    const std::size_t floor_outer = view_arena::permanent_bytes();
    {
      view_arena::Scope inner;
      (void)view_arena::allocate(128, 8);
      EXPECT_GE(view_arena::permanent_bytes(), floor_outer + 128);
    }
    EXPECT_EQ(view_arena::permanent_bytes(), floor_outer);
  }
  EXPECT_EQ(view_arena::permanent_bytes(), floor0);
}

// A factory whose fixture allocates from the arena OUTSIDE any run — the
// shape that used to promote 64 bytes into the calling thread's floor on
// every single sweep.
ProgramFactory arena_hungry_factory() {
  return [] {
    long* fixture = static_cast<long*>(view_arena::allocate(64, 8));
    *fixture = 0;
    return std::function<void()>([fixture] {
      reducer<monoid::op_add<long>> sum;
      spawn([&sum] { sum += 1; });
      sum += 2;
      sync();
      *fixture += sum.get_value();
    });
  };
}

TEST(ViewArenaNesting, ANestedRunKeepsTheOuterRunsLiveViews) {
  // The outer run holds an identity view in the arena when an inner run on
  // the same thread starts; rewinding there handed the inner run that
  // view's storage, and the outer value came out "L2S".
  spec::StealAll all;
  SerialEngine outer(nullptr, &all), inner(nullptr, &all);
  std::string outer_value, inner_value;
  outer.run([&] {
    reducer<monoid::string_append> a;
    spawn([&] { a.update([](std::string& s) { s += "L"; }); });
    a.update([](std::string& s) { s += "R"; });  // identity view, live
    inner.run([&] {
      reducer<monoid::string_append> b;
      spawn([&] { b.update([](std::string& s) { s += "1"; }); });
      b.update([](std::string& s) { s += "2"; });
      rader::sync();
      inner_value = b.get_value();
    });
    a.update([](std::string& s) { s += "S"; });
    rader::sync();
    outer_value = a.get_value();
  });
  EXPECT_EQ(inner_value, "12");
  EXPECT_EQ(outer_value, "LRS");
}

TEST(ViewArenaFloor, ThousandSweepsDoNotGrowTheFloor) {
  std::vector<std::unique_ptr<spec::StealSpec>> family;
  family.push_back(std::make_unique<spec::NoSteal>());
  const ProgramFactory factory = arena_hungry_factory();
  SweepOptions options;
  options.threads = 1;  // the worker runs inline on this thread, so its
                        // arena floor is observable here
  const SweepResult first = sweep_family(factory, family, options);
  EXPECT_EQ(first.spec_runs, 1u);
  const std::size_t floor_after_first = view_arena::permanent_bytes();
  for (int i = 0; i < 1000; ++i) {
    (void)sweep_family(factory, family, options);
  }
  EXPECT_EQ(view_arena::permanent_bytes(), floor_after_first)
      << "sweep fixtures are promoting the floor permanently again";
}

}  // namespace
}  // namespace rader
