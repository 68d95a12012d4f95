// A bug that only exists on stolen schedules — why Section 7's exhaustive
// coverage matters.
//
// "Different runs of a Cilk program that uses a reducer can cause different
// view-aware instructions to be executed, depending how the scheduling
// plays out.  Providing complete coverage could potentially require
// executing exponentially many different schedules..."
//
// The reducer below lazily "initializes a header" the first time a view is
// updated — a common pattern (allocate-a-buffer-on-first-use).  The bug:
// the initialization touches a SHARED header that another strand reads.
//
//   * In the serial schedule, only the very first update initializes (the
//     leftmost view is non-empty afterwards), and that happens before the
//     reader is spawned: NO race exists in the serial execution, and no
//     amount of serial-schedule checking (SP-bags, Cilk Screen, SP+ with no
//     steals) can find one.
//   * On any schedule that steals one of the later continuations, the
//     update lands on a fresh identity view and re-runs the initialization
//     IN PARALLEL with the reader: a real determinacy race.
//
// SP+ needs a steal specification that elicits that update strand; the
// Theorem 6 depth family (inside Rader::check_exhaustive) is guaranteed to
// contain one.
#include <cstdio>
#include <vector>

#include "core/driver.hpp"
#include "reducers/reducer.hpp"
#include "runtime/api.hpp"

namespace {

long g_header = 0;  // shared "header" the lazy initialization writes

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

void append_event(rader::reducer<log_monoid>& log, int i) {
  log.update(
      [&](EventLog& view) {
        if (view.items.empty()) {
          // Lazy per-view initialization — touches SHARED state.  Executes
          // once in the serial schedule, but once per STOLEN view in
          // parallel schedules.
          rader::shadow_write(&g_header, sizeof(g_header),
                              rader::SrcTag{"header init (view-aware)"});
          g_header += 1;
        }
        view.items.push_back(i);
      },
      rader::SrcTag{"append_event"});
}

void program() {
  g_header = 0;
  rader::reducer<log_monoid> log(rader::SrcTag{"event log"});
  append_event(log, -1);  // serial-schedule initialization, before any spawn
  rader::spawn([&] {
    // Reader strand, logically parallel with everything below.
    rader::shadow_read(&g_header, sizeof(g_header),
                       rader::SrcTag{"header read"});
    volatile long sink = g_header;
    (void)sink;
  });
  for (int i = 0; i < 6; ++i) {
    rader::spawn([] { /* some parallel work */ });
    append_event(log, i);  // on a stolen schedule: fresh view -> re-init!
  }
  rader::sync();
  volatile std::size_t n = log.get_value().items.size();
  (void)n;
}

}  // namespace

int main() {
  std::printf("checking the lazily-initializing reducer program...\n\n");

  rader::spec::NoSteal none;
  const rader::RaceLog serial =
      rader::Rader::check_determinacy([] { program(); }, none);
  std::printf("SP+ on the serial schedule: %llu race(s)  %s\n",
              static_cast<unsigned long long>(serial.determinacy_count()),
              serial.any() ? "" : "<- the racy instruction never executed");

  const auto exhaustive =
      rader::Rader::check_exhaustive(rader::shared_program([] { program(); }));
  std::printf("exhaustive (Section 7, %llu SP+ runs): %llu race(s)\n",
              static_cast<unsigned long long>(exhaustive.spec_runs),
              static_cast<unsigned long long>(
                  exhaustive.log.determinacy_count()));
  std::printf("%s", exhaustive.log.to_string().c_str());

  const bool demonstrated = !serial.any() && exhaustive.log.any();
  std::printf("\nschedule-dependent bug: %s\n",
              demonstrated ? "found only by exhaustive steal coverage, "
                             "as Theorem 6 promises"
                           : "UNEXPECTED");
  return demonstrated ? 0 : 1;
}
