// Metrics exposition (core/metrics_export.hpp): the Prometheus text
// rendering, the JSONL time-series sample line, and the MetricsSampler's
// throttling contract.  Structural/parser validation of real CLI output
// lives in scripts/check.sh; these tests pin the format rules.
#include "core/metrics_export.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "support/metrics.hpp"

namespace rader {
namespace {

metrics::Snapshot sample_snapshot() {
  metrics::Registry reg;
  metrics::Scope scope(&reg);
  metrics::bump(metrics::Counter::kSpecRuns, 7);
  metrics::bump(metrics::Counter::kDsuFinds, 3);
  metrics::gauge_add(metrics::Gauge::kShadowPagesLive, 5);
  metrics::gauge_add(metrics::Gauge::kShadowPagesLive, -2);
  for (std::uint64_t v : {1, 2, 4, 100}) {
    metrics::record(metrics::Histogram::kAccessBytes, v);
  }
  metrics::Registry* r = obs::current().registry;
  r->add_phase_nanos(metrics::Phase::kExecute, 1'500'000'000ull);
  return reg.snapshot();
}

TEST(MetricsExport, PrometheusFamilyMapsDottedNames) {
  EXPECT_EQ(prometheus_family("sweep.spec_runs"), "rader_sweep_spec_runs");
  EXPECT_EQ(prometheus_family("shadow.pages_live"),
            "rader_shadow_pages_live");
  EXPECT_EQ(prometheus_family("engine.deque_size"),
            "rader_engine_deque_size");
}

TEST(MetricsExport, PrometheusTextStructure) {
  const std::string text = prometheus_text(sample_snapshot());

  // Counters: HELP/TYPE pair plus the conventional _total suffix.
  EXPECT_NE(text.find("# HELP rader_sweep_spec_runs"), std::string::npos);
  EXPECT_NE(text.find("# TYPE rader_sweep_spec_runs_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("rader_sweep_spec_runs_total 7\n"), std::string::npos);

  // Gauges: the level and a _max companion.
  EXPECT_NE(text.find("# TYPE rader_shadow_pages_live gauge"),
            std::string::npos);
  EXPECT_NE(text.find("rader_shadow_pages_live 3\n"), std::string::npos);
  EXPECT_NE(text.find("rader_shadow_pages_live_max 5\n"), std::string::npos);

  // Histograms: cumulative le-buckets ending at +Inf == _count, plus _sum.
  EXPECT_NE(text.find("# TYPE rader_detector_access_bytes histogram"),
            std::string::npos);
  // Values 1,2,4 land in buckets le=1,3,7; 100 in le=127.  Cumulative:
  EXPECT_NE(text.find("rader_detector_access_bytes_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("rader_detector_access_bytes_bucket{le=\"3\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("rader_detector_access_bytes_bucket{le=\"7\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("rader_detector_access_bytes_bucket{le=\"127\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("rader_detector_access_bytes_bucket{le=\"+Inf\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("rader_detector_access_bytes_sum 107\n"),
            std::string::npos);
  EXPECT_NE(text.find("rader_detector_access_bytes_count 4\n"),
            std::string::npos);

  // Phases: one labeled seconds family.
  EXPECT_NE(text.find("# TYPE rader_phase_seconds counter"),
            std::string::npos);
  EXPECT_NE(text.find("rader_phase_seconds{phase=\"execute\"} 1.5"),
            std::string::npos);

  // Ends with a newline (exposition format requirement).
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
}

TEST(MetricsExport, JsonlSampleCarriesProgressAndSchemaV4Metrics) {
  const std::string line = jsonl_sample(1234, 5, 9, sample_snapshot());
  // One line, no trailing newline.
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_NE(line.find("\"t_ms\":1234"), std::string::npos);
  EXPECT_NE(line.find("\"done\":5"), std::string::npos);
  EXPECT_NE(line.find("\"total\":9"), std::string::npos);
  EXPECT_NE(line.find("\"metrics\":{"), std::string::npos);
  EXPECT_NE(line.find("\"sweep.spec_runs\":7"), std::string::npos);
  EXPECT_NE(line.find("\"gauges\""), std::string::npos);
  EXPECT_NE(line.find("\"histograms\""), std::string::npos);
}

TEST(MetricsExport, SamplerThrottlesToTheIntervalAndAlwaysWritesFinal) {
  std::ostringstream out;
  MetricsSampler sampler(&out, /*interval_ms=*/1'000'000);  // effectively off
  const metrics::Snapshot snap = sample_snapshot();

  // The first maybe_sample writes the baseline line; the rest fall inside
  // the (huge) interval and are suppressed.
  sampler.maybe_sample(1, 10, snap);
  sampler.maybe_sample(2, 10, snap);
  sampler.maybe_sample(3, 10, snap);
  EXPECT_EQ(sampler.samples_written(), 1u);
  EXPECT_NE(out.str().find("\"done\":1"), std::string::npos);
  EXPECT_EQ(out.str().find("\"done\":2"), std::string::npos);

  // final_sample is unconditional: the quiesced totals always land.
  sampler.final_sample(10, 10, snap);
  EXPECT_EQ(sampler.samples_written(), 2u);
  EXPECT_NE(out.str().find("\"done\":10"), std::string::npos);
  EXPECT_EQ(out.str().back(), '\n');
}

TEST(MetricsExport, SamplerEmitsAtItsCadence) {
  std::ostringstream out;
  MetricsSampler sampler(&out, /*interval_ms=*/1);
  const metrics::Snapshot snap = sample_snapshot();
  for (int i = 0; i < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    sampler.maybe_sample(i + 1, 10, snap);
  }
  EXPECT_GE(sampler.samples_written(), 3u);
  // Every emitted line is a complete sample.
  std::istringstream in(out.str());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_NE(line.find("\"t_ms\":"), std::string::npos);
    EXPECT_NE(line.find("\"metrics\":{"), std::string::npos);
  }
  EXPECT_EQ(lines, sampler.samples_written());
}

}  // namespace
}  // namespace rader
