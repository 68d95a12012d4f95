// The run-metrics registry (support/metrics.hpp): off-by-default semantics,
// scope nesting, snapshot arithmetic, and the end-to-end feeds from the
// detectors and the sweep engine.
#include "support/metrics.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/driver.hpp"
#include "core/sweep.hpp"
#include "runtime/api.hpp"
#include "spec/steal_spec.hpp"

namespace rader {
namespace {

int g_loc = 0;

void racy_program() {
  spawn([] { shadow_write(&g_loc, 4, SrcTag{"writer"}); });
  shadow_read(&g_loc, 4, SrcTag{"reader"});
  sync();
}

TEST(Metrics, BumpWithoutScopeIsANoOp) {
  ASSERT_EQ(obs::current().registry, nullptr);
  metrics::bump(metrics::Counter::kDsuFinds);  // must not crash
  metrics::Registry reg;
  {
    metrics::Scope scope(&reg);
    EXPECT_EQ(obs::current().registry, &reg);
  }
  // The earlier bump landed nowhere, not in the later registry.
  EXPECT_TRUE(reg.snapshot().empty());
}

TEST(Metrics, ScopesNestAndRestore) {
  metrics::Registry outer;
  metrics::Registry inner;
  {
    metrics::Scope s1(&outer);
    metrics::bump(metrics::Counter::kSpecRuns);
    {
      metrics::Scope s2(&inner);
      EXPECT_EQ(obs::current().registry, &inner);
      metrics::bump(metrics::Counter::kSpecRuns, 5);
    }
    EXPECT_EQ(obs::current().registry, &outer);
    metrics::bump(metrics::Counter::kSpecRuns);
  }
  EXPECT_EQ(obs::current().registry, nullptr);
  EXPECT_EQ(outer.snapshot().counter(metrics::Counter::kSpecRuns), 2u);
  EXPECT_EQ(inner.snapshot().counter(metrics::Counter::kSpecRuns), 5u);
}

TEST(Metrics, SnapshotAddAccumulatesElementwise) {
  metrics::Snapshot a;
  metrics::Snapshot b;
  a.counters[0] = 3;
  a.phase_nanos[1] = 10;
  b.counters[0] = 4;
  b.counters[2] = 1;
  b.phase_nanos[1] = 5;
  a.add(b);
  EXPECT_EQ(a.counters[0], 7u);
  EXPECT_EQ(a.counters[2], 1u);
  EXPECT_EQ(a.phase_nanos[1], 15u);
  EXPECT_FALSE(a.empty());
  EXPECT_TRUE(metrics::Snapshot{}.empty());
}

TEST(Metrics, SnapshotJsonNamesEveryCounterAndPhase) {
  metrics::Snapshot s;
  for (unsigned i = 0; i < metrics::kCounterCount; ++i) s.counters[i] = i + 1;
  const std::string json = s.to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"phase_seconds\""), std::string::npos);
  // Schema v4: namespaced counter names, plus gauges/histograms blocks.
  EXPECT_NE(json.find("\"detector.accesses_instrumented\":1"),
            std::string::npos);
  EXPECT_NE(json.find("\"sweep.spec_runs\":8"), std::string::npos);
  EXPECT_NE(json.find("\"execute\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(Metrics, ListMetricsCoversEveryEnumInOrder) {
  const auto infos = metrics::list_metrics();
  ASSERT_EQ(infos.size(), metrics::kCounterCount + metrics::kGaugeCount +
                              metrics::kHistogramCount + metrics::kPhaseCount);
  // Exposition order: counters, gauges, histograms, phases — and each name
  // agrees with the enum-indexed name function.
  std::size_t i = 0;
  for (unsigned c = 0; c < metrics::kCounterCount; ++c, ++i) {
    EXPECT_STREQ(infos[i].type, "counter");
    EXPECT_STREQ(infos[i].name,
                 metrics::counter_name(static_cast<metrics::Counter>(c)));
    EXPECT_NE(infos[i].help[0], '\0');
  }
  for (unsigned g = 0; g < metrics::kGaugeCount; ++g, ++i) {
    EXPECT_STREQ(infos[i].type, "gauge");
    EXPECT_STREQ(infos[i].name,
                 metrics::gauge_name(static_cast<metrics::Gauge>(g)));
  }
  for (unsigned h = 0; h < metrics::kHistogramCount; ++h, ++i) {
    EXPECT_STREQ(infos[i].type, "histogram");
    EXPECT_STREQ(infos[i].name,
                 metrics::histogram_name(static_cast<metrics::Histogram>(h)));
  }
  for (unsigned p = 0; p < metrics::kPhaseCount; ++p, ++i) {
    EXPECT_STREQ(infos[i].type, "phase");
  }
  // Names are namespaced (subsystem.metric) and unique.
  std::set<std::string> seen;
  for (const auto& m : infos) {
    if (std::string(m.type) != "phase") {
      EXPECT_NE(std::string(m.name).find('.'), std::string::npos) << m.name;
    }
    EXPECT_TRUE(seen.insert(m.name).second) << "duplicate name " << m.name;
  }
}

TEST(Metrics, HistogramBucketingAndQuantiles) {
  EXPECT_EQ(metrics::histogram_bucket(0), 0u);
  EXPECT_EQ(metrics::histogram_bucket(1), 1u);
  EXPECT_EQ(metrics::histogram_bucket(2), 2u);
  EXPECT_EQ(metrics::histogram_bucket(3), 2u);
  EXPECT_EQ(metrics::histogram_bucket(4), 3u);
  EXPECT_EQ(metrics::histogram_bucket(~0ull), metrics::kHistogramBuckets - 1);
  // Bucket upper bounds are 2^b - 1: bucket b covers [2^(b-1), 2^b - 1].
  EXPECT_EQ(metrics::histogram_bucket_bound(1), 1u);
  EXPECT_EQ(metrics::histogram_bucket_bound(3), 7u);

  metrics::Registry reg;
  metrics::Scope scope(&reg);
  for (std::uint64_t v = 1; v <= 100; ++v) {
    metrics::record(metrics::Histogram::kAccessBytes, v);
  }
  const auto& h = reg.snapshot().hist(metrics::Histogram::kAccessBytes);
  EXPECT_EQ(h.count, 100u);
  EXPECT_EQ(h.sum, 5050u);
  // Quantiles are interpolated within the log2 bucket: exact values are not
  // promised, but they must land within the true value's bucket.
  const double p50 = h.quantile(0.5);
  EXPECT_GE(p50, 32.0);
  EXPECT_LE(p50, 63.0);
  const double p99 = h.quantile(0.99);
  EXPECT_GE(p99, 64.0);
  EXPECT_LE(p99, 127.0);
}

TEST(Metrics, GaugesTrackValueAndHighWaterAndFold) {
  metrics::Registry a;
  metrics::Registry b;
  {
    metrics::Scope scope(&a);
    metrics::gauge_add(metrics::Gauge::kDequeSize, 5);
    metrics::gauge_add(metrics::Gauge::kDequeSize, -2);
  }
  {
    metrics::Scope scope(&b);
    metrics::gauge_add(metrics::Gauge::kDequeSize, -3);
  }
  metrics::Snapshot s = a.snapshot();
  s.add(b.snapshot());
  // Values sum across threads (a thief's -1 cancels a victim's +1); maxes
  // take the max of the per-thread high-water marks.
  EXPECT_EQ(s.gauge(metrics::Gauge::kDequeSize).value, 0);
  EXPECT_EQ(s.gauge(metrics::Gauge::kDequeSize).max, 5);
}

TEST(Metrics, SharedSnapshotSumsSlotsWaitFree) {
  metrics::SharedSnapshot shared(3);
  metrics::Snapshot s0;
  s0.counters[0] = 7;
  s0.gauges[0].value = -2;
  s0.gauges[0].max = 4;
  s0.hists[0].count = 2;
  s0.hists[0].sum = 10;
  s0.hists[0].buckets[3] = 2;
  metrics::Snapshot s1;
  s1.counters[0] = 5;
  s1.gauges[0].value = 3;
  s1.gauges[0].max = 3;
  shared.publish(0, s0);
  shared.publish(2, s1);
  const metrics::Snapshot sum = shared.read();
  EXPECT_EQ(sum.counters[0], 12u);
  EXPECT_EQ(sum.gauges[0].value, 1);
  EXPECT_EQ(sum.gauges[0].max, 4);
  EXPECT_EQ(sum.hists[0].count, 2u);
  EXPECT_EQ(sum.hists[0].sum, 10u);
  EXPECT_EQ(sum.hists[0].buckets[3], 2u);
  // Publishing again overwrites (totals, not deltas).
  s1.counters[0] = 6;
  shared.publish(2, s1);
  EXPECT_EQ(shared.read().counters[0], 13u);
}

TEST(Metrics, DetectorRunFeedsTheCurrentRegistry) {
  metrics::Registry reg;
  {
    metrics::Scope scope(&reg);
    spec::NoSteal none;
    const RaceLog log =
        Rader::check_determinacy([] { racy_program(); }, none);
    ASSERT_TRUE(log.any());
  }
  const metrics::Snapshot& s = reg.snapshot();
  EXPECT_GE(s.counter(metrics::Counter::kAccessesInstrumented), 2u);
  EXPECT_GE(s.counter(metrics::Counter::kFramesEntered), 2u);
  EXPECT_GE(s.counter(metrics::Counter::kShadowPagesTouched), 1u);
  EXPECT_GE(s.counter(metrics::Counter::kDsuFinds), 1u);
  EXPECT_GE(s.counter(metrics::Counter::kRacesReported), 1u);
  EXPECT_EQ(s.counter(metrics::Counter::kSpecRuns), 1u);
  EXPECT_GT(s.phase_nanos[static_cast<unsigned>(metrics::Phase::kExecute)],
            0u);
}

TEST(Metrics, SweepAggregatesWorkersAndForwardsToOuterScope) {
  std::vector<std::unique_ptr<spec::StealSpec>> family;
  family.push_back(std::make_unique<spec::NoSteal>());
  family.push_back(std::make_unique<spec::DepthSteal>(1));
  family.push_back(std::make_unique<spec::StealAll>());

  metrics::Registry outer;
  SweepResult result;
  {
    metrics::Scope scope(&outer);
    SweepOptions options;
    options.threads = 2;
    result = sweep_family(shared_program([] { racy_program(); }), family,
                          options);
  }
  // Without stop-first every budgeted spec runs exactly once, so the counter
  // is deterministic and equals the accounted spec_runs.
  EXPECT_EQ(result.metrics.counter(metrics::Counter::kSpecRuns),
            result.spec_runs);
  EXPECT_GE(result.metrics.counter(metrics::Counter::kAccessesInstrumented),
            2u * family.size());
  // The aggregate was forwarded into the caller's registry.
  EXPECT_EQ(outer.snapshot().counter(metrics::Counter::kSpecRuns),
            result.metrics.counter(metrics::Counter::kSpecRuns));
}

}  // namespace
}  // namespace rader
