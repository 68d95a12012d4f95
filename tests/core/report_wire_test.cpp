// The cross-process wire codecs (core/report_wire.hpp): the fidelity
// contract that makes the crash-isolated sweep's surviving-spec merge
// byte-identical to the in-process sweep's.
#include "core/report_wire.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "core/driver.hpp"
#include "core/race_report.hpp"
#include "runtime/api.hpp"
#include "spec/steal_spec.hpp"
#include "support/metrics.hpp"

namespace rader {
namespace {

int g_a = 0;

void racy_program() {
  spawn([] { shadow_write(&g_a, 4, SrcTag{"writer"}); });
  shadow_read(&g_a, 4, SrcTag{"reader"});
  sync();
}

RaceLog detect_under(const spec::StealSpec& s) {
  return Rader::check_determinacy([] { racy_program(); }, s);
}

TEST(ReportWire, RaceLogRoundTripsByteIdentical) {
  spec::TripleSteal triple(0, 1, 2);
  const RaceLog log = detect_under(triple);
  ASSERT_TRUE(log.any());

  RaceLog restored;
  std::string error;
  ASSERT_TRUE(race_log_from_json(log.to_json(), &restored, &error)) << error;
  EXPECT_EQ(restored.to_json(), log.to_json());
  EXPECT_EQ(restored.determinacy_count(), log.determinacy_count());
  EXPECT_EQ(restored.view_read_count(), log.view_read_count());
}

TEST(ReportWire, RestoredLogMergesLikeTheOriginal) {
  // The supervisor merges restored per-spec logs in family order; the result
  // must match merging the originals — dedup keys, eliciting-spec unions,
  // and occurrence arithmetic all have to survive the wire.
  spec::TripleSteal triple(0, 1, 2);
  spec::StealAll all;
  const RaceLog log_a = detect_under(triple);
  const RaceLog log_b = detect_under(all);
  ASSERT_TRUE(log_a.any());
  ASSERT_TRUE(log_b.any());

  RaceLog direct;
  direct.merge(log_a);
  direct.merge(log_b);

  RaceLog wire_a, wire_b;
  ASSERT_TRUE(race_log_from_json(log_a.to_json(), &wire_a));
  ASSERT_TRUE(race_log_from_json(log_b.to_json(), &wire_b));
  RaceLog via_wire;
  via_wire.merge(wire_a);
  via_wire.merge(wire_b);

  EXPECT_EQ(via_wire.to_json(), direct.to_json());
}

TEST(ReportWire, CapDroppedOccurrenceTotalsSurvive) {
  // A log whose stored-report cap dropped identities still tallies their
  // occurrences in the global counters; the reconstruction must preserve
  // the totals or cross-process merge arithmetic drifts.
  RaceLog tiny(1);  // store at most one report
  for (int i = 0; i < 3; ++i) {
    auto r = make_determinacy_race(0x1000 + static_cast<std::uintptr_t>(i),
                                   AccessKind::kRead, false, true, 1, 2,
                                   "label-" + std::to_string(i));
    tiny.report_determinacy(r);
  }
  tiny.stamp_found_under("no-steals");
  ASSERT_EQ(tiny.determinacy_races().size(), 1u);
  ASSERT_EQ(tiny.determinacy_count(), 3u);

  RaceLog restored;
  ASSERT_TRUE(race_log_from_json(tiny.to_json(), &restored));
  EXPECT_EQ(restored.determinacy_count(), 3u);
  EXPECT_EQ(restored.to_json(), tiny.to_json());
}

// Control characters in labels must leave the writer as four-digit \u
// escapes, which the reader (and any JSON parser) accepts.
TEST(ReportWire, ControlCharacterLabelsRoundTrip) {
  const std::string labels[] = {"a\x01" "b", "left\rwrite", "x\x1f" "y"};
  RaceLog log;
  for (std::size_t i = 0; i < std::size(labels); ++i) {
    log.report_determinacy(make_determinacy_race(
        0x1000 + i, AccessKind::kRead, false, true, 1, 2, labels[i]));
    log.report_view_read(make_view_read_race(static_cast<ReducerId>(i), 1, 2,
                                             labels[i], labels[i]));
  }
  log.stamp_found_under("no-steals");
  const std::string json = log.to_json();
  for (const char* escaped :
       {"a\\u0001b", "left\\u000dwrite", "x\\u001fy"}) {
    EXPECT_NE(json.find(escaped), std::string::npos) << escaped;
  }

  RaceLog restored;
  std::string error;
  ASSERT_TRUE(race_log_from_json(json, &restored, &error)) << error;
  EXPECT_EQ(restored.to_json(), json);
  ASSERT_EQ(restored.determinacy_races().size(), std::size(labels));
  ASSERT_EQ(restored.view_read_races().size(), std::size(labels));
  for (std::size_t i = 0; i < std::size(labels); ++i) {
    EXPECT_EQ(restored.determinacy_races()[i].current_label, labels[i]);
    EXPECT_EQ(restored.view_read_races()[i].prior_label, labels[i]);
    EXPECT_EQ(restored.view_read_races()[i].current_label, labels[i]);
  }
}

TEST(ReportWire, EmptyLogRoundTrips) {
  RaceLog empty;
  RaceLog restored;
  ASSERT_TRUE(race_log_from_json(empty.to_json(), &restored));
  EXPECT_FALSE(restored.any());
  EXPECT_EQ(restored.to_json(), empty.to_json());
}

TEST(ReportWire, MalformedJsonIsRejectedNotThrown) {
  RaceLog out;
  std::string error;
  EXPECT_FALSE(race_log_from_json("", &out, &error));
  EXPECT_FALSE(race_log_from_json("not json at all", &out, &error));
  EXPECT_FALSE(race_log_from_json("{\"view_read_occurrences\":", &out,
                                  &error));
  EXPECT_FALSE(error.empty());
  // Truncated mid-array: a crashing child can tear its last line.
  spec::StealAll all;
  const std::string good = detect_under(all).to_json();
  EXPECT_FALSE(
      race_log_from_json(good.substr(0, good.size() / 2), &out, &error));
}

// Integers the target field cannot hold are rejected, never clamped: a
// clamped occurrence count would also wrap the stored-occurrence sum past
// the declared-total check.
TEST(ReportWire, OutOfRangeOccurrencesAreRejected) {
  const std::string race =
      "{\"reducer\":0,\"prior_frame\":1,\"current_frame\":2,"
      "\"prior_label\":\"a\",\"current_label\":\"b\",\"occurrences\":";
  const std::string json = "{\"view_read_occurrences\":1,"
                           "\"determinacy_occurrences\":0,"
                           "\"view_read_races\":[" +
                           race + "99999999999999999999}," + race +
                           "2}],\"determinacy_races\":[]}";
  RaceLog out;
  std::string error;
  EXPECT_FALSE(race_log_from_json(json, &out, &error));
  EXPECT_FALSE(error.empty());
}

TEST(ReportWire, ReducerIdBeyondThirtyTwoBitsIsRejected) {
  RaceLog log;
  log.report_view_read(make_view_read_race(7, 1, 2, "a", "b"));
  std::string json = log.to_json();
  const std::string id = "\"reducer\":7";
  const std::size_t at = json.find(id);
  ASSERT_NE(at, std::string::npos);
  RaceLog out;
  ASSERT_TRUE(race_log_from_json(json, &out));
  json.replace(at, id.size(), "\"reducer\":4294967296");
  EXPECT_FALSE(race_log_from_json(json, &out));
}

// Two child logs that each declare a total near 2^64 are both valid; the
// supervisor's merge saturates their sums instead of wrapping them.
TEST(ReportWire, MergedNearMaxTotalsSaturate) {
  RaceLog child;
  ViewReadRace race = make_view_read_race(7, 1, 2, "a", "b");
  race.occurrences = std::uint64_t{1} << 63;
  child.report_view_read(race);
  RaceLog a, b;
  ASSERT_TRUE(race_log_from_json(child.to_json(), &a));
  ASSERT_TRUE(race_log_from_json(child.to_json(), &b));
  a.merge(b);
  EXPECT_EQ(a.view_read_count(), UINT64_MAX);
  ASSERT_EQ(a.view_read_races().size(), 1u);
  EXPECT_EQ(a.view_read_races()[0].occurrences, UINT64_MAX);
  a.add_unstored_occurrences(1, 0);
  EXPECT_EQ(a.view_read_count(), UINT64_MAX);
}

TEST(ReportWire, SnapshotWireRejectsOutOfRangeWords) {
  const std::string wire = snapshot_to_wire(metrics::Snapshot{});
  const std::size_t last = wire.rfind(' ');
  metrics::Snapshot out;
  ASSERT_TRUE(snapshot_from_wire(wire, &out));
  EXPECT_FALSE(snapshot_from_wire(
      wire.substr(0, last + 1) + "18446744073709551616", &out));
}

TEST(ReportWire, SnapshotRoundTripsEveryBlock) {
  metrics::Snapshot snap;
  for (unsigned i = 0; i < metrics::kCounterCount; ++i) {
    snap.counters[i] = 100 + i;
  }
  for (unsigned i = 0; i < metrics::kPhaseCount; ++i) {
    snap.phase_nanos[i] = 7'000'000ull * (i + 1);
  }
  for (unsigned i = 0; i < metrics::kGaugeCount; ++i) {
    snap.gauges[i].value = 3 + i;
    snap.gauges[i].max = 9 + i;
  }
  for (unsigned i = 0; i < metrics::kHistogramCount; ++i) {
    snap.hists[i].count = 2;
    snap.hists[i].sum = 3000ull * (i + 1);
    snap.hists[i].buckets[i % metrics::kHistogramBuckets] = 2;
  }
  const std::string wire = snapshot_to_wire(snap);
  metrics::Snapshot restored;
  ASSERT_TRUE(snapshot_from_wire(wire, &restored));
  EXPECT_EQ(snapshot_to_wire(restored), wire);
  EXPECT_EQ(restored.counters[0], snap.counters[0]);
  EXPECT_EQ(restored.gauges[0].max, snap.gauges[0].max);
}

TEST(ReportWire, SnapshotWireRejectsWordCountMismatch) {
  metrics::Snapshot snap;
  const std::string wire = snapshot_to_wire(snap);
  metrics::Snapshot out;
  EXPECT_FALSE(snapshot_from_wire("", &out));
  EXPECT_FALSE(snapshot_from_wire("3 1 2", &out));
  EXPECT_FALSE(snapshot_from_wire(wire + " 42", &out));
  EXPECT_FALSE(snapshot_from_wire(wire.substr(0, wire.size() / 2), &out));
}

// Every block at its extremes: a negative gauge level, u64-max words, and
// both end buckets of a histogram.
metrics::Snapshot fixed_snapshot() {
  metrics::Snapshot s;
  s.counters[static_cast<unsigned>(
      metrics::Counter::kAccessesInstrumented)] = 1;
  s.counters[static_cast<unsigned>(metrics::Counter::kSpecRuns)] = 42;
  s.counters[metrics::kCounterCount - 1] = ~std::uint64_t{0};
  s.phase_nanos[static_cast<unsigned>(metrics::Phase::kMerge)] = 123456789;
  s.gauges[0] = {7, 9};
  s.gauges[metrics::kGaugeCount - 1] = {-3, 5};
  metrics::HistogramCell& h = s.hists[metrics::kHistogramCount - 1];
  h.count = 2;
  h.sum = ~std::uint64_t{0} - 1;
  h.buckets[0] = 1;
  h.buckets[metrics::kHistogramBuckets - 1] = 1;
  return s;
}

// The isolated sweep's children speak this text: a change to the Snapshot
// word order or its encoding must fail here, not garble a metrics line.
TEST(ReportWire, SnapshotWireTextIsPinned) {
  const std::string expected =
      "435 1 0 0 0 0 0 0 42 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 "
      "18446744073709551615 0 0 0 123456789 7 9 0 0 0 0 0 0 "
      "18446744073709551613 5 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 "
      "0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 "
      "0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 "
      "0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 "
      "0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 "
      "0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 "
      "0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 "
      "0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 "
      "0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 "
      "0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 "
      "0 0 0 0 0 0 0 0 0 0 0 2 18446744073709551614 1 0 0 0 0 0 0 0 0 0 0 "
      "0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 "
      "0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 1";
  EXPECT_EQ(snapshot_to_wire(fixed_snapshot()), expected);
  metrics::Snapshot back;
  ASSERT_TRUE(snapshot_from_wire(expected, &back));
  EXPECT_EQ(back.gauges[metrics::kGaugeCount - 1].value, -3);
  EXPECT_EQ(snapshot_to_wire(back), expected);
}

std::vector<std::uint64_t> words(const metrics::Snapshot& s) {
  std::vector<std::uint64_t> out(metrics::kSnapshotWords);
  std::memcpy(out.data(), &s, sizeof s);
  return out;
}

metrics::Snapshot random_snapshot(std::mt19937_64& rng) {
  metrics::Registry reg;
  for (unsigned c = 0; c < metrics::kCounterCount; ++c) {
    reg.bump(static_cast<metrics::Counter>(c), rng() % 1000);
  }
  for (unsigned p = 0; p < metrics::kPhaseCount; ++p) {
    reg.add_phase_nanos(static_cast<metrics::Phase>(p), rng() % 1'000'000);
  }
  for (unsigned g = 0; g < metrics::kGaugeCount; ++g) {
    // Up, then down past zero more often than not: negative levels.
    const auto gauge = static_cast<metrics::Gauge>(g);
    reg.gauge_add(gauge, static_cast<std::int64_t>(rng() % 100));
    reg.gauge_add(gauge, -static_cast<std::int64_t>(rng() % 200));
  }
  for (unsigned h = 0; h < metrics::kHistogramCount; ++h) {
    const auto hist = static_cast<metrics::Histogram>(h);
    reg.record(hist, rng() >> (rng() % 64));
    reg.record(hist, ~std::uint64_t{0});  // the top bucket
  }
  return reg.snapshot();
}

// Snapshot::add, a SharedSnapshot publish/read and a wire round trip fold
// random snapshots to the same words.
TEST(ReportWire, SnapshotAddSharedAndWireAgreeWordForWord) {
  std::mt19937_64 rng(20);
  for (int round = 0; round < 50; ++round) {
    const metrics::Snapshot a = random_snapshot(rng);
    const metrics::Snapshot b = random_snapshot(rng);
    metrics::Snapshot sum = a;
    sum.add(b);

    metrics::SharedSnapshot shared(2);
    shared.publish(0, a);
    shared.publish(1, b);
    EXPECT_EQ(words(shared.read()), words(sum)) << "round " << round;

    metrics::Snapshot wire_a;
    metrics::Snapshot wire_b;
    ASSERT_TRUE(snapshot_from_wire(snapshot_to_wire(a), &wire_a));
    ASSERT_TRUE(snapshot_from_wire(snapshot_to_wire(b), &wire_b));
    EXPECT_EQ(words(wire_a), words(a)) << "round " << round;
    wire_a.add(wire_b);
    EXPECT_EQ(words(wire_a), words(sum)) << "round " << round;
  }
}

}  // namespace
}  // namespace rader
