// The observability context (support/context.hpp): one thread-local holds
// every sink, one Scope restores all of it, and a Fanout hands worker
// threads their own sinks and folds them back after the join.
#include "support/context.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "support/metrics.hpp"
#include "support/profile.hpp"
#include "support/trace.hpp"

namespace rader {
namespace {

bool same(const obs::Context& a, const obs::Context& b) {
  return a.registry == b.registry && a.profiler == b.profiler &&
         a.session == b.session && a.buffer == b.buffer &&
         a.worker == b.worker;
}

TEST(ObsScope, ReplacingOneSinkRestoresEveryField) {
  metrics::Registry outer_reg;
  metrics::Registry inner_reg;
  prof::Profiler profiler;
  trace::Session session;
  obs::Scope reg_scope(&outer_reg);
  obs::Scope prof_scope(&profiler);
  TraceScope trace_scope(&session, "outer");
  trace::set_worker(2);
  const obs::Context before = obs::current();
  {
    metrics::Scope inner(&inner_reg);
    EXPECT_EQ(obs::current().registry, &inner_reg);
    // The other sinks stay installed.
    EXPECT_EQ(obs::current().profiler, &profiler);
    EXPECT_EQ(obs::current().buffer, before.buffer);
    // A simulated steal inside the scope moves the worker id.
    trace::set_worker(7);
  }
  EXPECT_TRUE(same(obs::current(), before));
}

TEST(ObsFanout, AProfilerOnlyWhenTheParentHasOne) {
  metrics::Registry reg;
  obs::Context parent;
  parent.registry = &reg;
  {
    obs::Fanout fan(parent, 2, "w");
    const obs::Context c = fan.context(1);
    EXPECT_NE(c.registry, nullptr);
    EXPECT_NE(c.registry, &reg);  // private, folded later
    EXPECT_EQ(c.profiler, nullptr);
    EXPECT_EQ(c.session, nullptr);
    EXPECT_EQ(c.buffer, nullptr);
    EXPECT_EQ(c.worker, 1u);
  }
  prof::Profiler profiler;
  parent.profiler = &profiler;
  obs::Fanout fan(parent, 2, "w");
  EXPECT_NE(fan.context(0).profiler, nullptr);
  EXPECT_NE(fan.context(0).profiler, fan.context(1).profiler);
  EXPECT_NE(fan.context(0).profiler, &profiler);
}

TEST(ObsFanout, FoldReturnsEverySinkToTheParent) {
  metrics::Registry reg;
  prof::Profiler profiler;
  trace::Session session;
  obs::Scope reg_scope(&reg);
  obs::Scope prof_scope(&profiler);
  TraceScope trace_scope(&session, "main");
  prof::Phase outer("outer");
  obs::Fanout fan(obs::current(), 2, "w");
  std::vector<std::thread> pool;
  for (unsigned w = 0; w < 2; ++w) {
    pool.emplace_back([&fan, w] {
      obs::Scope scope(fan.context(w));
      metrics::bump(metrics::Counter::kSpecRuns);
      prof::Phase work("work");
      trace::emit(trace::EventKind::kSync, 0);
    });
  }
  for (auto& t : pool) t.join();
  EXPECT_EQ(reg.snapshot().counter(metrics::Counter::kSpecRuns), 0u);
  fan.fold();
  EXPECT_EQ(reg.snapshot().counter(metrics::Counter::kSpecRuns), 2u);
  // The workers' trees fold in beneath the parent's open phase.
  const prof::Node& outer_node = *profiler.root().children.at(0);
  ASSERT_EQ(outer_node.children.size(), 1u);
  EXPECT_STREQ(outer_node.children[0]->name, "work");
  EXPECT_EQ(outer_node.children[0]->count, 2u);
  const auto buffers = session.buffers();
  ASSERT_EQ(buffers.size(), 3u);
  EXPECT_EQ(buffers[1]->name(), "w0");
  EXPECT_EQ(buffers[2]->name(), "w1");
  EXPECT_EQ(buffers[1]->recorded(), 1u);
  EXPECT_EQ(buffers[2]->ordered().at(0).worker, 1u);
  EXPECT_EQ(buffers[0]->recorded(), 0u);  // nothing landed on "main"
}

}  // namespace
}  // namespace rader
