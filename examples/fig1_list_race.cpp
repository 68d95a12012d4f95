// Figure 1 of the paper, end to end: a determinacy race hidden inside a
// reducer's Reduce operation.
//
// `race` spawns scan_list(list) in parallel with update_list(n, copy), where
// `copy` is a SHALLOW copy — both lists point at the same nodes.
// update_list coordinates its parallel inserts with a list reducer, so the
// write that actually races with the scan is the O(1) concatenation inside
// the monoid's Reduce, appending to the original view's shared tail node.
//
// Consequences demonstrated here:
//   * SP-bags (Cilk Screen's algorithm) reports NOTHING — in the no-steal
//     serial execution no Reduce ever runs, so the racing instruction never
//     executes;
//   * SP+ under a steal specification that forces steals (and therefore
//     reduces) catches the race;
//   * the Section-7 exhaustive driver finds it without hand-picking a spec.
#include <cstdio>

#include "apps/mylist.hpp"
#include "core/driver.hpp"
#include "reducers/reducer.hpp"
#include "runtime/api.hpp"

namespace {

using rader::apps::list_monoid;
using rader::apps::MyList;

// Figure 1, update_list: insert n elements through a list reducer.  A Cilk
// function, so its body runs in its own frame (rader::call).
void update_list(int n, MyList& list) {
  rader::call([&] {
    rader::reducer<list_monoid> list_reducer(rader::SrcTag{"list_reducer"});
    list_reducer.set_value(list, rader::SrcTag{"set_value(list)"});
    rader::parallel_for_flat<int>(
        0, n,
        [&](int i) {
          list_reducer.update([&](MyList& view) { view.insert(i); },
                              rader::SrcTag{"list insert"});
        },
        /*chunks=*/8);
    rader::sync();
    list = list_reducer.take_value(rader::SrcTag{"get_value()"});
  });
}

// Figure 1, race: scan a snapshot while updating it — but the "snapshot" is
// a shallow copy sharing every node.
int race_fig1(int n, MyList& list) {
  int length = 0;
  MyList copy(list);  // BUG: shallow copy
  rader::spawn([&] { length = list.scan(rader::SrcTag{"scan_list"}); });
  update_list(n, copy);
  rader::sync();
  list = copy;  // adopt the updated list (same nodes)
  return length;
}

}  // namespace

int main() {
  MyList owned;
  for (int i = 0; i < 16; ++i) owned.insert(1000 + i);

  MyList list = owned;  // working handle (shares nodes by design of MyList)
  rader::apps::ListNode* owned_tail =
      const_cast<rader::apps::ListNode*>(owned.head());
  while (owned_tail->next != nullptr) owned_tail = owned_tail->next;
  const auto program = [&] {
    MyList working = owned;  // fresh shallow handle each run
    race_fig1(12, working);
    // The Reduce-side concat — the Figure 1 bug — appended onto `owned`'s
    // tail through the shallow copies.  Detach the appendage (raw, serial,
    // after the sync) so every run observes the identical 16-node list:
    // checker programs must be re-runnable.
    owned_tail->next = nullptr;
  };

  std::printf("checking Figure 1's race() with n=12...\n\n");

  // The racing location: the shared last node's next pointer, written only
  // by the list concatenation inside Reduce.
  const rader::apps::ListNode* last_node = owned.head();
  while (last_node->next != nullptr) last_node = last_node->next;
  const auto racy_addr = reinterpret_cast<std::uintptr_t>(&last_node->next);
  const auto hits_racy_addr = [&](const rader::RaceLog& log) {
    for (const auto& r : log.determinacy_races()) {
      if (r.addr >= racy_addr && r.addr < racy_addr + sizeof(void*)) {
        return true;
      }
    }
    return false;
  };

  // Reducer-aware serial checking (what Cilk Screen effectively does):
  // SP+ with no steals — the Reduce never executes, so nothing is found.
  rader::spec::NoSteal none;
  const rader::RaceLog serial_check =
      rader::Rader::check_determinacy(program, none);
  std::printf("serial check (no steals, Cilk Screen's view): %llu race(s)  "
              "%s\n",
              static_cast<unsigned long long>(
                  serial_check.determinacy_count()),
              serial_check.any() ? "" : "<- the Reduce never runs serially");

  rader::spec::TripleSteal steal_spec(0, 1, 2);
  const rader::RaceLog spplus =
      rader::Rader::check_determinacy(program, steal_spec);
  std::printf("SP+ under %s: %llu race(s)\n", steal_spec.describe().c_str(),
              static_cast<unsigned long long>(spplus.determinacy_count()));
  std::printf("%s", spplus.to_string().c_str());

  const auto exhaustive =
      rader::Rader::check_exhaustive(rader::shared_program(program));
  std::printf(
      "\nexhaustive (Section 7): %llu SP+ runs over K=%u, D=%llu -> "
      "%llu distinct racing location(s)\n",
      static_cast<unsigned long long>(exhaustive.spec_runs), exhaustive.k,
      static_cast<unsigned long long>(exhaustive.depth),
      static_cast<unsigned long long>(
          exhaustive.log.determinacy_races().size()));

  (void)list;
  const bool reproduced = !serial_check.any() && hits_racy_addr(spplus);
  std::printf("\nFigure 1 reproduction: %s\n",
              reproduced
                  ? "OK (serial checking misses it, SP+ under steals "
                    "catches the Reduce write)"
                  : "UNEXPECTED");
  return reproduced ? 0 : 1;
}
