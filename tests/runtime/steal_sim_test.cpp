// Steal simulation: the serial engine must mint views at specified
// continuations, run Reduce operations as instrumented kReduce frames, and
// preserve reducer semantics (the serial-projection value) under EVERY
// steal specification.
#include <gtest/gtest.h>

#include <string>

#include "reducers/monoid.hpp"
#include "reducers/reducer.hpp"
#include "runtime/api.hpp"
#include "runtime/run.hpp"
#include "runtime/serial_engine.hpp"
#include "spec/steal_spec.hpp"
#include "../test_util.hpp"

namespace rader {
namespace {

using testing::EventLogTool;

TEST(StealSim, NoStealSpecSimulatesNothing) {
  EventLogTool log;
  spec::NoSteal none;
  SerialEngine engine(&log, &none);
  engine.run([&] {
    spawn([] {});
    spawn([] {});
    sync();
  });
  EXPECT_EQ(log.count_prefix("steal"), 0);
  EXPECT_EQ(log.count_prefix("reduce"), 0);
  EXPECT_EQ(engine.stats().steals, 0u);
}

TEST(StealSim, StealAllMintsOneViewPerContinuation) {
  EventLogTool log;
  spec::StealAll all;
  SerialEngine engine(&log, &all);
  engine.run([&] {
    spawn([] {});
    spawn([] {});
    spawn([] {});
    sync();
  });
  EXPECT_EQ(engine.stats().steals, 3u);
  EXPECT_EQ(log.count_prefix("steal(0,c0,v1)"), 1);
  EXPECT_EQ(log.count_prefix("steal(0,c1,v2)"), 1);
  EXPECT_EQ(log.count_prefix("steal(0,c2,v3)"), 1);
  // All three epochs fold at the sync (right-to-left), before sync(0).
  EXPECT_EQ(log.count_prefix("reduce(0,v2<-v3)"), 1);
  EXPECT_EQ(log.count_prefix("reduce(0,v1<-v2)"), 1);
  EXPECT_EQ(log.count_prefix("reduce(0,v0<-v1)"), 1);
}

TEST(StealSim, EpochsFoldAtImplicitSync) {
  spec::StealAll all;
  SerialEngine engine(nullptr, &all);
  engine.run([&] {
    spawn([&] {
      spawn([] {});
      // Implicit sync in this spawned frame folds its stolen epoch.
    });
    sync();
  });
  EXPECT_EQ(engine.stats().steals, 2u);
  EXPECT_EQ(engine.stats().reduces, 2u);
}

TEST(StealSim, TripleStealStealsRequestedContinuationsOnly) {
  EventLogTool log;
  spec::TripleSteal triple(0, 2, 4);
  SerialEngine engine(&log, &triple);
  engine.run([&] {
    for (int i = 0; i < 6; ++i) spawn([] {});
    sync();
  });
  EXPECT_EQ(engine.stats().steals, 3u);
  EXPECT_EQ(log.count_prefix("steal(0,c0"), 1);
  EXPECT_EQ(log.count_prefix("steal(0,c2"), 1);
  EXPECT_EQ(log.count_prefix("steal(0,c4"), 1);
  // TripleSteal(a,b,c) merges the two newest epochs at the pre-steal point
  // of c, eliciting reduce([a,b), [b,c)) — here reduce(v1 <- v2) before c4.
  const std::string joined = log.joined();
  const auto merge_pos = joined.find("reduce(0,v1<-v2)");
  const auto steal_c4 = joined.find("steal(0,c4");
  ASSERT_NE(merge_pos, std::string::npos);
  ASSERT_NE(steal_c4, std::string::npos);
  EXPECT_LT(merge_pos, steal_c4);
}

TEST(StealSim, ReducerValueDeterministicUnderManySpecs) {
  // The same computation must produce its serial-projection value under
  // every steal specification (this is the whole point of reducers).
  const auto program = [](long& out) {
    reducer<monoid::op_add<long>> sum;
    for (int i = 1; i <= 20; ++i) {
      spawn([&sum, i] { sum += i; });
      if (i % 5 == 0) sync();
    }
    sync();
    out = sum.get_value();
  };

  long expected = -1;
  {
    spec::NoSteal none;
    SerialEngine engine(nullptr, &none);
    engine.run([&] { program(expected); });
    EXPECT_EQ(expected, 210);
  }
  const spec::StealAll all;
  const spec::TripleSteal t1(0, 1, 2), t2(1, 2, 4), t3(0, 0, 0);
  const spec::DepthSteal d1(1), d2(2);
  const spec::StealSpec* specs[] = {&all, &t1, &t2, &t3, &d1, &d2};
  for (const auto* s : specs) {
    long got = -1;
    SerialEngine engine(nullptr, s);
    engine.run([&] { program(got); });
    EXPECT_EQ(got, expected) << s->describe();
  }
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    spec::BernoulliSteal b(seed, 0.4);
    long got = -1;
    SerialEngine engine(nullptr, &b);
    engine.run([&] { program(got); });
    EXPECT_EQ(got, expected) << b.describe();
  }
}

TEST(StealSim, NonCommutativeMonoidKeepsSerialOrderUnderSteals) {
  // String append is associative but NOT commutative: any wrong reduce
  // order or operand swap would scramble the output.
  const auto program = [](std::string& out) {
    reducer<monoid::string_append> s;
    for (int i = 0; i < 8; ++i) {
      spawn([&s, i] {
        s.update([&](std::string& v) { v += static_cast<char>('a' + i); });
      });
    }
    sync();
    out = s.get_value();
  };
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    spec::BernoulliSteal b(seed, 0.5);
    std::string got;
    SerialEngine engine(nullptr, &b);
    engine.run([&] { program(got); });
    EXPECT_EQ(got, "abcdefgh") << b.describe();
  }
}

TEST(StealSim, ReduceRunsAsViewAwareReduceFrame) {
  EventLogTool log;
  spec::StealAll all;
  SerialEngine engine(&log, &all);
  engine.run([&] {
    reducer<monoid::op_add<long>> sum;
    spawn([&] { sum += 1; });
    sum += 2;  // continuation update goes to the stolen view
    sync();
    volatile long v = sum.get_value();
    (void)v;
  });
  // One steal, one epoch merge, one user Reduce frame.
  EXPECT_EQ(log.count_prefix("steal"), 1);
  EXPECT_EQ(log.count_prefix("reduce(0,v0<-v1)"), 1);
  EXPECT_EQ(log.count_prefix("enter(2,from=0,reduce,v0)"), 1);
  EXPECT_EQ(log.count_prefix("redop(reduce,h0)"), 1);
  EXPECT_EQ(log.count_prefix("redop(identity,h0)"), 1);  // lazy view creation
}

TEST(StealSim, UpdateAccessesAreViewAware) {
  EventLogTool log;
  spec::NoSteal none;
  SerialEngine engine(&log, &none);
  engine.run([&] {
    reducer<monoid::op_add<long>> sum;
    sum += 3;  // operator+= annotates the view scalar inside the bracket
  });
  EXPECT_EQ(log.count_prefix("write(8,va,v0"), 1);
}

TEST(StealSim, LazyIdentityOnlyWhenUpdatedAfterSteal) {
  spec::StealAll all;
  SerialEngine engine(nullptr, &all);
  long result = -1;
  engine.run([&] {
    reducer<monoid::op_add<long>> sum;
    sum += 5;
    spawn([] { /* no reducer use */ });
    // Continuation stolen, but no update here: no identity view created,
    // the epoch merge finds nothing to reduce.
    sync();
    result = sum.get_value();
  });
  EXPECT_EQ(result, 5);
  EXPECT_EQ(engine.stats().user_reduces, 0u);
}

TEST(StealSim, ReducerCreatedBeforeRunBindsLazily) {
  reducer<monoid::op_add<long>> sum;  // constructed with no engine
  sum.set_value(100);
  spec::StealAll all;
  SerialEngine engine(nullptr, &all);
  long result = -1;
  engine.run([&] {
    spawn([&] { sum += 1; });
    sum += 2;
    sync();
    result = sum.get_value();
  });
  EXPECT_EQ(result, 103);
  EXPECT_EQ(sum.get_value(), 103);  // value persists after the run
}

TEST(StealSim, MultipleReducersReduceInRegistrationOrder) {
  EventLogTool log;
  spec::StealAll all;
  SerialEngine engine(&log, &all);
  engine.run([&] {
    reducer<monoid::op_add<long>> a, b;
    spawn([&] {
      a += 1;
      b += 2;
    });
    a += 3;  // stolen continuation: identity views for both reducers
    b += 4;
    sync();
    volatile long va = a.get_value(), vb = b.get_value();
    (void)va;
    (void)vb;
  });
  // One epoch merge producing two user reduces, reducer 0 before reducer 1.
  EXPECT_EQ(engine.stats().user_reduces, 2u);
  const std::string joined = log.joined();
  EXPECT_LT(joined.find("redop(reduce,h0)"), joined.find("redop(reduce,h1)"));
}

TEST(StealSim, ReducesRunInRegistrationOrderNotFirstUpdateOrder) {
  // Three reducers first updated in reverse registration order within one
  // stolen epoch: the epoch merge must still reduce h0, h1, h2 in turn.
  EventLogTool log;
  spec::StealAll all;
  SerialEngine engine(&log, &all);
  std::string va, vb, vc;
  engine.run([&] {
    reducer<monoid::string_append> a, b, c;
    spawn([&] {
      a.update([](std::string& s) { s += "a1"; });
      b.update([](std::string& s) { s += "b1"; });
      c.update([](std::string& s) { s += "c1"; });
    });
    // The stolen continuation's epoch: identity views minted c, b, a.
    c.update([](std::string& s) { s += "c2"; });
    b.update([](std::string& s) { s += "b2"; });
    a.update([](std::string& s) { s += "a2"; });
    sync();
    va = a.get_value();
    vb = b.get_value();
    vc = c.get_value();
  });
  EXPECT_EQ(va, "a1a2");
  EXPECT_EQ(vb, "b1b2");
  EXPECT_EQ(vc, "c1c2");
  EXPECT_EQ(engine.stats().reduces, 1u);
  EXPECT_EQ(engine.stats().user_reduces, 3u);
  const std::string joined = log.joined();
  const auto r0 = joined.find("redop(reduce,h0)");
  const auto r1 = joined.find("redop(reduce,h1)");
  const auto r2 = joined.find("redop(reduce,h2)");
  ASSERT_NE(r2, std::string::npos);
  EXPECT_LT(r0, r1);
  EXPECT_LT(r1, r2);
  // And the identities were minted in first-update order, h2 first.
  EXPECT_LT(joined.find("redop(identity,h2)"),
            joined.find("redop(identity,h0)"));
}

TEST(StealSim, NestedFramesGetIndependentSyncBlocks) {
  spec::TripleSteal triple(0, 1, 2);
  SerialEngine engine(nullptr, &triple);
  long result = -1;
  engine.run([&] {
    reducer<monoid::op_add<long>> sum;
    for (int rep = 0; rep < 3; ++rep) {
      call([&] {
        for (int i = 0; i < 4; ++i) {
          spawn([&sum] { sum += 1; });
        }
        sync();
      });
    }
    result = sum.get_value();
  });
  EXPECT_EQ(result, 12);
  EXPECT_EQ(engine.stats().steals, 9u);  // 3 per called frame's sync block
}

}  // namespace
}  // namespace rader
