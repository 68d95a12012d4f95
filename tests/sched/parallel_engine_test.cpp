#include "sched/parallel_engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "reducers/monoid.hpp"
#include "reducers/reducer.hpp"
#include "runtime/api.hpp"

namespace rader {
namespace {

TEST(ParallelEngine, RunsRootOnCallerThread) {
  ParallelEngine engine(2);
  int x = 0;
  engine.run([&] { x = 1; });
  EXPECT_EQ(x, 1);
}

TEST(ParallelEngine, SpawnSyncComputesFibonacci) {
  ParallelEngine engine(4);
  std::function<std::uint64_t(int)> fib = [&](int n) -> std::uint64_t {
    if (n < 2) return n;
    std::uint64_t a = 0, b = 0;
    spawn([&a, &fib, n] { a = fib(n - 1); });
    b = fib(n - 2);
    sync();
    return a + b;
  };
  std::uint64_t result = 0;
  engine.run([&] { result = fib(20); });
  EXPECT_EQ(result, 6765u);
}

TEST(ParallelEngine, ActuallyRunsInParallel) {
  if (std::thread::hardware_concurrency() < 2) {
    GTEST_SKIP() << "needs >= 2 hardware threads to observe overlap";
  }
  ParallelEngine engine(4);
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  // Each task holds its slot until some sibling has overlapped with a
  // running task, so the overlap does not depend on how fast a woken helper
  // gets a core.  The deadline only bounds a run in which no helper ever
  // runs a task: that run still fails below.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  engine.run([&] {
    for (int i = 0; i < 16; ++i) {
      spawn([&] {
        const int now = concurrent.fetch_add(1) + 1;
        int seen = peak.load();
        while (seen < now && !peak.compare_exchange_weak(seen, now)) {
        }
        while (peak.load() < 2 &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
        concurrent.fetch_sub(1);
      });
    }
    sync();
  });
  EXPECT_GT(peak.load(), 1) << "no overlap observed with 4 workers";
}

TEST(ParallelEngine, ReducerSumMatchesSerial) {
  ParallelEngine engine(8);
  long total = 0;
  engine.run([&] {
    reducer<monoid::op_add<long>> sum;
    parallel_for<long>(1, 10001, [&](long i) { sum += i; }, /*grain=*/7);
    sync();
    total = sum.get_value();
  });
  EXPECT_EQ(total, 50005000L);
}

TEST(ParallelEngine, NonCommutativeOrderPreserved) {
  ParallelEngine engine(8);
  for (int rep = 0; rep < 10; ++rep) {
    std::string result;
    engine.run([&] {
      reducer<monoid::string_append> s;
      for (int i = 0; i < 16; ++i) {
        spawn([&s, i] {
          s.update([&](std::string& v) { v += static_cast<char>('a' + i); });
        });
      }
      sync();
      result = s.get_value();
    });
    EXPECT_EQ(result, "abcdefghijklmnop") << "rep " << rep;
  }
}

TEST(ParallelEngine, NestedSyncScopesAreLocal) {
  ParallelEngine engine(4);
  std::string result;
  engine.run([&] {
    reducer<monoid::string_append> s;
    for (int block = 0; block < 4; ++block) {
      call([&] {
        for (int i = 0; i < 4; ++i) {
          spawn([&s, block, i] {
            s.update([&](std::string& v) {
              v += static_cast<char>('a' + block * 4 + i);
            });
          });
        }
        sync();
      });
    }
    result = s.get_value();
  });
  EXPECT_EQ(result, "abcdefghijklmnop");
}

TEST(ParallelEngine, ReducerCreatedOutsideRunFoldsIntoLeftmost) {
  reducer<monoid::op_add<long>> sum(100L);
  ParallelEngine engine(4);
  engine.run([&] {
    parallel_for<int>(0, 100, [&](int) { sum += 1; }, /*grain=*/3);
    sync();
  });
  EXPECT_EQ(sum.get_value(), 200);
}

TEST(ParallelEngine, SequentialRunsReuseWorkers) {
  ParallelEngine engine(4);
  for (int rep = 0; rep < 5; ++rep) {
    long total = 0;
    engine.run([&] {
      reducer<monoid::op_add<long>> sum;
      parallel_for<int>(0, 1000, [&](int) { sum += 1; });
      sync();
      total = sum.get_value();
    });
    EXPECT_EQ(total, 1000);
  }
}

TEST(ParallelEngine, SingleWorkerDegeneratesToSerial) {
  ParallelEngine engine(1);
  std::vector<int> trace;
  engine.run([&] {
    trace.push_back(0);
    spawn([&] { trace.push_back(1); });
    trace.push_back(2);
    sync();
    trace.push_back(3);
  });
  // Child stealing on one worker: continuation first, child at the sync.
  EXPECT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace[0], 0);
  EXPECT_EQ(trace[3], 3);
}

TEST(ParallelEngine, StealCountReported) {
  if (std::thread::hardware_concurrency() < 2) {
    GTEST_SKIP() << "steals are not guaranteed on a single hardware thread";
  }
  ParallelEngine engine(4);
  const std::thread::id root = std::this_thread::get_id();
  std::atomic<bool> ran_elsewhere{false};
  bool timed_out = false;
  engine.run([&] {
    // Child stealing: the spawned child waits on the caller's deque while
    // the continuation runs, so the continuation holds off the sync until
    // a helper has stolen and run the child.  That makes a steal certain
    // instead of likely; the bounded wait turns a scheduler that never
    // steals into a failure rather than a hang.
    spawn([&] {
      if (std::this_thread::get_id() != root) ran_elsewhere.store(true);
    });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!ran_elsewhere.load()) {
      if (std::chrono::steady_clock::now() > deadline) {
        timed_out = true;
        break;
      }
      std::this_thread::yield();
    }
    sync();
  });
  ASSERT_FALSE(timed_out) << "no helper stole the spawned child within 30 s";
  EXPECT_GT(engine.steal_count(), 0u);
}

}  // namespace
}  // namespace rader
