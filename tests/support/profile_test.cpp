// The hierarchical phase profiler (support/profile.hpp): tree building,
// self-time attribution, worker-tree absorption, the collapsed-stack and
// table renderings, and the dormant no-op guarantee.
#include "support/profile.hpp"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <thread>

namespace rader {
namespace {

void spin_for_nanos(std::uint64_t nanos) {
  const std::uint64_t start = metrics::now_nanos();
  while (metrics::now_nanos() - start < nanos) {
  }
}

TEST(Profile, PhaseWithoutScopeIsANoOp) {
  ASSERT_EQ(obs::current().profiler, nullptr);
  { prof::Phase p("orphan"); }  // must not crash, must record nowhere
  prof::Profiler profiler;
  {
    obs::Scope scope(&profiler);
    EXPECT_EQ(obs::current().profiler, &profiler);
  }
  EXPECT_TRUE(profiler.empty());
}

TEST(Profile, ScopesNestAndRestore) {
  prof::Profiler outer;
  prof::Profiler inner;
  {
    obs::Scope s1(&outer);
    EXPECT_EQ(obs::current().profiler, &outer);
    {
      obs::Scope s2(&inner);
      EXPECT_EQ(obs::current().profiler, &inner);
    }
    EXPECT_EQ(obs::current().profiler, &outer);
  }
  EXPECT_EQ(obs::current().profiler, nullptr);
}

TEST(Profile, TreeBuildsByNamePathWithCounts) {
  prof::Profiler profiler;
  {
    obs::Scope scope(&profiler);
    for (int i = 0; i < 3; ++i) {
      prof::Phase sweep("sweep");
      {
        prof::Phase spec("spec");
        prof::Phase detect("detect");
      }
      { prof::Phase merge("merge"); }
    }
  }
  const prof::Node& root = profiler.root();
  ASSERT_EQ(root.children.size(), 1u);
  const prof::Node& sweep = *root.children[0];
  EXPECT_STREQ(sweep.name, "sweep");
  EXPECT_EQ(sweep.count, 3u);
  ASSERT_EQ(sweep.children.size(), 2u);  // spec + merge, folded by name
  EXPECT_STREQ(sweep.children[0]->name, "spec");
  EXPECT_EQ(sweep.children[0]->count, 3u);
  ASSERT_EQ(sweep.children[0]->children.size(), 1u);
  EXPECT_STREQ(sweep.children[0]->children[0]->name, "detect");
  EXPECT_STREQ(sweep.children[1]->name, "merge");
}

TEST(Profile, SelfTimeIsInclusiveMinusChildrenAndSumsToWallTime) {
  prof::Profiler profiler;
  const std::uint64_t wall_start = metrics::now_nanos();
  {
    obs::Scope scope(&profiler);
    prof::Phase outer("outer");
    spin_for_nanos(2'000'000);  // 2 ms of self time
    {
      prof::Phase inner("inner");
      spin_for_nanos(2'000'000);
    }
  }
  const std::uint64_t wall = metrics::now_nanos() - wall_start;

  const prof::Node& outer = *profiler.root().children[0];
  const prof::Node& inner = *outer.children[0];
  // Inclusive time contains the child; self time subtracts it back out.
  EXPECT_GE(outer.total_nanos, inner.total_nanos);
  EXPECT_EQ(outer.self_nanos(), outer.total_nanos - inner.total_nanos);
  EXPECT_GE(outer.self_nanos(), 1'000'000u);
  // The phases cover (almost) the whole wall time of the region, and the
  // self times partition the inclusive root time: sum(self) == inclusive.
  EXPECT_LE(outer.total_nanos, wall);
  EXPECT_EQ(outer.self_nanos() + inner.self_nanos(), outer.total_nanos);
}

TEST(Profile, AbsorbMergesTreesByNamePath) {
  // Two "workers" build disjoint-count trees with a shared path; absorbing
  // both into a fresh profiler folds same-path nodes together.
  prof::Profiler w0;
  prof::Profiler w1;
  {
    obs::Scope scope(&w0);
    prof::Phase spec("spec");
    prof::Phase detect("detect");
  }
  {
    obs::Scope scope(&w1);
    {
      prof::Phase spec("spec");
      prof::Phase detect("detect");
    }
    prof::Phase replay("replay");
  }
  prof::Profiler total;
  {
    obs::Scope scope(&total);
    prof::Phase sweep("sweep");
    obs::current().profiler->absorb(w0.root());
    obs::current().profiler->absorb(w1.root());
  }
  const prof::Node& sweep = *total.root().children[0];
  ASSERT_EQ(sweep.children.size(), 2u);  // spec (folded) + replay
  const prof::Node& spec = *sweep.children[0];
  EXPECT_STREQ(spec.name, "spec");
  EXPECT_EQ(spec.count, 2u);  // one visit from each worker
  ASSERT_EQ(spec.children.size(), 1u);
  EXPECT_EQ(spec.children[0]->count, 2u);
  EXPECT_STREQ(sweep.children[1]->name, "replay");
  // Folded inclusive time sums the workers'.
  EXPECT_EQ(spec.total_nanos,
            w0.root().children[0]->total_nanos +
                w1.root().children[0]->total_nanos);
}

TEST(Profile, CollapsedEmitsEveryPrefixExactlyOnce) {
  prof::Profiler profiler;
  {
    obs::Scope scope(&profiler);
    prof::Phase sweep("sweep");
    {
      prof::Phase spec("spec");
      prof::Phase detect("detect");
    }
    prof::Phase merge("merge");
  }
  const std::string out = prof::collapsed(profiler.root());
  std::set<std::string> paths;
  std::istringstream in(out);
  std::string line;
  while (std::getline(in, line)) {
    const auto pos = line.rfind(' ');
    ASSERT_NE(pos, std::string::npos) << line;
    const std::string path = line.substr(0, pos);
    const std::string value = line.substr(pos + 1);
    EXPECT_FALSE(value.empty());
    for (char c : value) EXPECT_TRUE(c >= '0' && c <= '9') << line;
    EXPECT_TRUE(paths.insert(path).second) << "duplicate path " << path;
  }
  EXPECT_EQ(paths.count("sweep"), 1u);
  EXPECT_EQ(paths.count("sweep;spec"), 1u);
  EXPECT_EQ(paths.count("sweep;spec;detect"), 1u);
  EXPECT_EQ(paths.count("sweep;merge"), 1u);
  // Flamegraph tools need complete stack prefixes.
  for (const std::string& p : paths) {
    const auto semi = p.rfind(';');
    if (semi != std::string::npos) {
      EXPECT_EQ(paths.count(p.substr(0, semi)), 1u) << "missing prefix of "
                                                    << p;
    }
  }
}

TEST(Profile, TableNamesEveryPhase) {
  prof::Profiler profiler;
  {
    obs::Scope scope(&profiler);
    prof::Phase sweep("sweep");
    prof::Phase spec("spec");
  }
  const std::string t = prof::table(profiler.root());
  EXPECT_NE(t.find("sweep"), std::string::npos);
  EXPECT_NE(t.find("spec"), std::string::npos);
}

// One clock pair feeds both sinks: the profiler node and the metrics phase
// slot read the same interval, and a nameless phase feeds the slot only.
TEST(Profile, PhaseFeedsTheProfilerAndTheMetricsSlotFromOneClock) {
  prof::Profiler profiler;
  metrics::Registry reg;
  {
    obs::Scope pscope(&profiler);
    metrics::Scope mscope(&reg);
    {
      prof::Phase merge("merge", metrics::Phase::kMerge);
      spin_for_nanos(100'000);
    }
    {
      prof::Phase execute(nullptr, metrics::Phase::kExecute);
      spin_for_nanos(100'000);
    }
  }
  ASSERT_EQ(profiler.root().children.size(), 1u);
  const prof::Node& merge = *profiler.root().children[0];
  EXPECT_STREQ(merge.name, "merge");
  EXPECT_GE(merge.total_nanos, 100'000u);
  const metrics::Snapshot& snap = reg.snapshot();
  EXPECT_EQ(snap.phase_nanos[static_cast<unsigned>(metrics::Phase::kMerge)],
            merge.total_nanos);
  EXPECT_GE(snap.phase_nanos[static_cast<unsigned>(metrics::Phase::kExecute)],
            100'000u);
}

TEST(Profile, ProfilerIsPerThread) {
  prof::Profiler main_prof;
  obs::Scope scope(&main_prof);
  std::thread worker([] {
    // The worker thread starts with no profiler installed even while the
    // spawning thread holds one.
    EXPECT_EQ(obs::current().profiler, nullptr);
    prof::Phase p("worker-noop");  // dormant, records nowhere
  });
  worker.join();
  EXPECT_TRUE(main_prof.empty());
}

}  // namespace
}  // namespace rader
