// The Section-7 motivation, as a regression test: a view-aware instruction
// that executes only on stolen schedules (lazy per-view initialization of
// shared state) is invisible to every serial-schedule checker but is found
// by the exhaustive steal-specification family.
#include <gtest/gtest.h>

#include <vector>

#include "core/driver.hpp"
#include "reducers/reducer.hpp"
#include "runtime/api.hpp"

namespace rader {
namespace {

long g_header = 0;

struct EventLog {
  std::vector<int> items;
};

struct log_monoid {
  using value_type = EventLog;
  static EventLog identity() { return {}; }
  static void reduce(EventLog& left, EventLog& right) {
    left.items.insert(left.items.end(), right.items.begin(),
                      right.items.end());
  }
};

void lazy_init_program() {
  g_header = 0;
  reducer<log_monoid> log(SrcTag{"event log"});
  const auto append = [&](int i) {
    log.update([&](EventLog& view) {
      if (view.items.empty()) {
        shadow_write(&g_header, sizeof(g_header), SrcTag{"header init"});
        g_header += 1;
      }
      view.items.push_back(i);
    });
  };
  append(-1);  // serial-schedule initialization, before any spawn
  spawn([&] {
    shadow_read(&g_header, sizeof(g_header), SrcTag{"header read"});
  });
  for (int i = 0; i < 5; ++i) {
    spawn([] {});
    append(i);
  }
  sync();
  volatile std::size_t n = log.get_value().items.size();
  (void)n;
}

TEST(ScheduleDependentBug, InvisibleToEverySerialScheduleChecker) {
  const auto prog = [] { lazy_init_program(); };
  spec::NoSteal none;
  EXPECT_FALSE(Rader::check_determinacy(prog, none).any());
  EXPECT_FALSE(Rader::check_spbags(prog).any());
  EXPECT_FALSE(Rader::check_view_read(prog).any());
}

TEST(ScheduleDependentBug, ElicitedByASingleDepthSteal) {
  // Any steal of a later continuation re-runs the lazy initialization on a
  // fresh view, in parallel with the reader.
  const auto prog = [] { lazy_init_program(); };
  spec::DepthSteal depth(3);
  const RaceLog log = Rader::check_determinacy(prog, depth);
  EXPECT_TRUE(log.any());
  ASSERT_FALSE(log.determinacy_races().empty());
  EXPECT_EQ(log.determinacy_races()[0].addr,
            reinterpret_cast<std::uintptr_t>(&g_header));
  EXPECT_TRUE(log.determinacy_races()[0].current_view_aware);
}

TEST(ScheduleDependentBug, FoundByTheExhaustiveFamily) {
  const auto result =
      Rader::check_exhaustive(shared_program([] { lazy_init_program(); }));
  EXPECT_TRUE(result.log.determinacy_count() > 0);
  EXPECT_EQ(result.log.view_read_count(), 0u);
}

}  // namespace
}  // namespace rader
