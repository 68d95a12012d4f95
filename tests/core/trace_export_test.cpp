// The Chrome trace-event exporter and the text timeline
// (core/trace_export.hpp), driven by a real traced execution: a reducer
// program under a triple-steal spec, so the trace contains simulated-worker
// tracks, frame slices, and steal→reduce flow arrows.
#include "core/trace_export.hpp"

#include <gtest/gtest.h>

#include <string>

#include "core/spplus.hpp"
#include "reducers/reducer.hpp"
#include "runtime/api.hpp"
#include "runtime/serial_engine.hpp"
#include "spec/steal_spec.hpp"
#include "support/trace.hpp"

namespace rader {
namespace {

// A reducer loop that steals and reduces under TripleSteal(0,1,2): each
// stolen continuation mints a view, each view dies in an epoch merge.
void reducer_program() {
  reducer<monoid::op_add<int>> sum(SrcTag{"sum"});
  parallel_for_flat<int>(
      0, 6,
      [&](int i) { sum.update([&](int& v) { v += i; }, SrcTag{"add"}); },
      /*chunks=*/6);
  sync();
  EXPECT_EQ(sum.take_value(SrcTag{"get"}), 0 + 1 + 2 + 3 + 4 + 5);
}

/// Run `reducer_program` under TripleSteal(0,1,2) with tracing on and a
/// detector attached; returns the populated session via out-params.
void traced_run(trace::Session* session) {
  TraceScope scope(session, "main");
  RaceLog log;
  SpPlusDetector detector(&log);
  spec::TripleSteal triple(0, 1, 2);
  SerialEngine engine(&detector, &triple);
  engine.run([] { reducer_program(); });
  EXPECT_GE(engine.stats().steals, 3u);
  EXPECT_GE(engine.stats().reduces, 1u);
}

TEST(TraceExport, ChromeJsonHasTracksSlicesAndFlows) {
  trace::Session session;
  traced_run(&session);
  const std::string json = chrome_trace_json(session);

  // Envelope.
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  // Process metadata for the buffer, thread metadata per simulated worker:
  // worker 0 runs the root, each of the three steals mints a fresh worker.
  EXPECT_NE(json.find("\"name\":\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"worker 0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"worker 1\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"worker 3\""), std::string::npos);
  // Frame slices, instants, and the steal→reduce flow pair.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
}

TEST(TraceExport, TimestampsAreNonDecreasingInFileOrder) {
  trace::Session session;
  traced_run(&session);
  const std::string json = chrome_trace_json(session);
  // Events are globally sorted by ts, so the "ts" values appear in
  // non-decreasing order in the file (what scripts/check.sh asserts
  // per-track; global sorting implies it for every track).
  double last = -1.0;
  std::size_t pos = 0;
  std::size_t seen = 0;
  while ((pos = json.find("\"ts\":", pos)) != std::string::npos) {
    pos += 5;
    const double ts = std::stod(json.substr(pos));
    EXPECT_GE(ts, last);
    last = ts;
    ++seen;
  }
  EXPECT_GT(seen, 10u);
}

TEST(TraceExport, WorkerTracksFollowTheSteals) {
  trace::Session session;
  traced_run(&session);
  ASSERT_EQ(session.buffers().size(), 1u);
  // The raw events move to a fresh worker at each steal.
  std::uint32_t max_worker = 0;
  std::uint64_t steals = 0;
  for (const auto& e : session.buffers()[0]->ordered()) {
    max_worker = std::max(max_worker, e.worker);
    if (e.kind == trace::EventKind::kSteal) {
      ++steals;
      EXPECT_EQ(e.worker, steals) << "steal N lands on fresh worker N";
    }
  }
  EXPECT_GE(steals, 3u);
  EXPECT_EQ(max_worker, steals);
}

TEST(TraceExport, TextTimelineIsGreppable) {
  trace::Session session;
  traced_run(&session);
  const std::string text = text_timeline(session);
  EXPECT_NE(text.find("main"), std::string::npos);
  EXPECT_NE(text.find("steal"), std::string::npos);
  EXPECT_NE(text.find("reduce-begin"), std::string::npos);
  EXPECT_NE(text.find("view-create"), std::string::npos);
  EXPECT_NE(text.find("run-end"), std::string::npos);
}

TEST(TraceExport, SecondRunInOneBufferRestartsPairing) {
  // Frame ids restart at every kRunBegin; the exporter must pair each
  // run's enter/return events independently instead of mixing runs.
  trace::Session session;
  {
    TraceScope scope(&session, "main");
    RaceLog log;
    SpPlusDetector detector(&log);
    spec::TripleSteal triple(0, 1, 2);
    SerialEngine engine(&detector, &triple);
    engine.run([] { reducer_program(); });
    engine.run([] { reducer_program(); });
  }
  const std::string json = chrome_trace_json(session);
  // Both runs produce root slices; the exporter emits at least twice the
  // single-run slice count without dropping frames as orphans.
  std::size_t slices = 0;
  for (std::size_t pos = 0;
       (pos = json.find("\"ph\":\"X\"", pos)) != std::string::npos; pos += 8) {
    ++slices;
  }
  EXPECT_GE(slices, 2u);
  EXPECT_NE(json.find("run-begin"), std::string::npos);
}

TEST(TraceExport, ConflictInstantCarriesTheDetectorLabel) {
  // A racy program: the detector's emit_conflict surfaces as a kConflict
  // instant whose label is the reporting access's source tag.
  static int slot = 0;
  trace::Session session;
  {
    TraceScope scope(&session, "main");
    RaceLog log;
    SpPlusDetector detector(&log);
    spec::NoSteal none;
    SerialEngine engine(&detector, &none);
    engine.run([] {
      spawn([] { shadow_write(&slot, 4, SrcTag{"writer"}); });
      shadow_read(&slot, 4, SrcTag{"reader"});
      sync();
    });
    EXPECT_TRUE(log.any());
  }
  bool found = false;
  for (const auto& e : session.buffers()[0]->ordered()) {
    if (e.kind != trace::EventKind::kConflict) continue;
    found = true;
    EXPECT_STREQ(e.label, "reader");
    // Byte-granular shadow cells: one conflict per racing byte of the slot.
    const auto base = reinterpret_cast<std::uintptr_t>(&slot);
    EXPECT_GE(e.a, base);
    EXPECT_LT(e.a, base + sizeof(slot));
  }
  EXPECT_TRUE(found);
  const std::string json = chrome_trace_json(session);
  EXPECT_NE(json.find("conflict"), std::string::npos);
}

}  // namespace
}  // namespace rader
