// End-to-end reproductions of the paper's worked examples:
//   * Figure 1: the shallow-copy linked-list program whose race hides inside
//     a Reduce — missed by SP-bags (Cilk Screen), caught by SP+.
//   * Section 6's Figure 5 walkthrough: same-view accesses after a P-bag
//     union are not reported; different-P-bag accesses are.
#include <gtest/gtest.h>

#include "apps/mylist.hpp"
#include "core/driver.hpp"
#include "dag/oracle.hpp"
#include "dag/recorder.hpp"
#include "reducers/reducer.hpp"
#include "runtime/api.hpp"
#include "runtime/serial_engine.hpp"

namespace rader {
namespace {

using apps::list_monoid;
using apps::MyList;

// Figure 1, update_list — a Cilk function, so it gets its own frame.
void update_list(int n, MyList& list) {
  call([&] {
    reducer<list_monoid> list_reducer(SrcTag{"list_reducer"});
    list_reducer.set_value(list, SrcTag{"set_value(list)"});
    parallel_for_flat<int>(
        0, n,
        [&](int i) {
          list_reducer.update([&](MyList& view) { view.insert(i); },
                              SrcTag{"list insert"});
        },
        /*chunks=*/6);
    sync();
    list = list_reducer.take_value(SrcTag{"get_value()"});
  });
}

// Figure 1, race.
void race_fig1(int n, MyList& list) {
  int length = 0;
  MyList copy(list);  // BUG: shallow copy
  spawn([&] { length = list.scan(SrcTag{"scan_list"}); });
  update_list(n, copy);
  sync();
  (void)length;
}

struct Fig1Fixture : ::testing::Test {
  MyList owned;
  void SetUp() override {
    for (int i = 0; i < 8; ++i) owned.insert(100 + i);
  }
  void TearDown() override { owned.destroy(); }

  std::function<void()> program() {
    return [this] {
      MyList working = owned;  // fresh shallow handle per run
      race_fig1(6, working);
    };
  }
};

TEST_F(Fig1Fixture, SpBagsMissesTheReduceRace) {
  // "A tool such as Cilk Screen will not catch this particular race,
  // because the determinacy race involves a view-aware instruction executed
  // in a Reduce operation."  The racing location is the shared last node's
  // next pointer, written only by the concatenation inside Reduce.
  const apps::ListNode* last = owned.head();
  while (last->next != nullptr) last = last->next;
  const auto racy_addr = reinterpret_cast<std::uintptr_t>(&last->next);

  const auto prog = program();
  // Reducer-aware serial checking (SP+ with no steals, Cilk Screen's view):
  // completely clean — the Reduce never executes serially.
  spec::NoSteal none;
  EXPECT_FALSE(Rader::check_determinacy(prog, none).any());
  // Plain SP-bags is reducer-OBLIVIOUS: it may flag parallel updates to the
  // shared view header (spurious — reducers make those safe), but it cannot
  // flag the real race: the Reduce instruction never ran.
  const RaceLog spbags = Rader::check_spbags(prog);
  for (const auto& race : spbags.determinacy_races()) {
    EXPECT_NE(race.addr, racy_addr)
        << "SP-bags cannot see a Reduce that never executed";
  }
  // SP+ under steals catches exactly that location.
  spec::TripleSteal triple(0, 1, 2);
  const RaceLog spplus = Rader::check_determinacy(prog, triple);
  bool found = false;
  for (const auto& race : spplus.determinacy_races()) {
    found |= (race.addr >= racy_addr &&
              race.addr < racy_addr + sizeof(apps::ListNode*));
  }
  EXPECT_TRUE(found) << "SP+ should flag the shared tail node's next pointer";
}

TEST_F(Fig1Fixture, SpPlusCatchesTheReduceRaceUnderSteals) {
  const auto prog = program();
  spec::TripleSteal triple(0, 1, 2);
  const RaceLog log = Rader::check_determinacy(prog, triple);
  EXPECT_TRUE(log.any());
}

TEST_F(Fig1Fixture, OracleConfirmsTheRaceOnTheSameExecution) {
  const auto prog = program();
  spec::TripleSteal triple(0, 1, 2);
  RaceLog log;
  SpPlusDetector detector(&log);
  dag::Recorder recorder;
  ToolChain chain;
  chain.add(&detector);
  chain.add(&recorder);
  SerialEngine engine(&chain, &triple);
  engine.run(prog);
  const dag::OracleResult oracle = dag::run_oracle(recorder.dag());
  EXPECT_TRUE(oracle.any_determinacy);
  EXPECT_TRUE(log.any());
  // Every address SP+ reported is a ground-truth racing address.
  for (const auto& r : log.determinacy_races()) {
    EXPECT_TRUE(oracle.racing_addrs.count(r.addr) > 0);
  }
}

TEST_F(Fig1Fixture, ExhaustiveDriverFindsItWithoutHandPickedSpec) {
  const auto prog = program();
  const auto result =
      Rader::check_exhaustive(shared_program(prog), {}, /*k_cap=*/8);
  EXPECT_TRUE(result.log.determinacy_count() > 0);
  EXPECT_GT(result.spec_runs, 1u);
}

TEST_F(Fig1Fixture, FixedProgramWithDeepCopyIsClean) {
  // The fix the paper implies: a DEEP copy shares no nodes.
  const auto fixed = [this] {
    MyList deep;
    for (const apps::ListNode* n = owned.head(); n != nullptr; n = n->next) {
      deep.insert(n->value);
    }
    int length = 0;
    MyList snapshot = owned;
    spawn([&] { length = snapshot.scan(); });
    update_list(6, deep);
    sync();
    deep.destroy();
    (void)length;
  };
  spec::TripleSteal triple(0, 1, 2);
  EXPECT_FALSE(Rader::check_determinacy(fixed, triple).any());
  EXPECT_FALSE(Rader::check_view_read(fixed).any());
}

TEST_F(Fig1Fixture, NoViewReadRaceInFig1) {
  // Figure 1's discipline around set_value/get_value is correct: the bug is
  // a determinacy race, not a view-read race.
  EXPECT_FALSE(Rader::check_view_read(program()).any());
}

}  // namespace
}  // namespace rader
