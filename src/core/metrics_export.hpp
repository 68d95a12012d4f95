// Metrics exposition: the two wire formats the observability hub speaks.
//
// 1. Prometheus text format (`prometheus_text`): one point-in-time
//    rendering of a metrics::Snapshot in the exposition format every
//    scrape-based collector parses.  Dotted metric names become
//    underscore-joined and `rader_`-prefixed (`sweep.spec_runs` →
//    `rader_sweep_spec_runs`), counters gain the conventional `_total`
//    suffix, gauges emit both the level and a `_max` companion, phases
//    become `rader_phase_seconds{phase="..."}`, and histograms emit the
//    full cumulative-`le` bucket series plus `_sum`/`_count` — so p50/p90
//    /p99 can be recomputed server-side with histogram_quantile().  HELP
//    and TYPE lines come from metrics::list_metrics(), the same catalog
//    `rader --list-metrics` prints.  The CLI writes one snapshot per run
//    via `--metrics-prom=FILE`.
//
// 2. JSONL time series (`jsonl_sample` + `MetricsSampler`): one JSON
//    object per line, each a timestamped live snapshot
//    (`{"t_ms":...,"done":...,"total":...,"metrics":{...}}`), appended at
//    a fixed cadence while a sweep runs.  The sweep's monitor drives the
//    sampler (`--metrics-out=FILE --metrics-interval-ms=N`) off the
//    workers' SharedSnapshot slots, so sampling never touches the
//    hot path — the enabled cost is budgeted by bench/sweep_scaling
//    --check-metrics-overhead at <= 1.05x geomean.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "support/metrics.hpp"

namespace rader {

/// Render `snap` in the Prometheus text exposition format (HELP/TYPE/sample
/// lines, trailing newline).  Pure function of the snapshot.
std::string prometheus_text(const metrics::Snapshot& snap);

/// Canonical Prometheus family name for a dotted rader metric name:
/// "sweep.spec_runs" → "rader_sweep_spec_runs".  No type suffix.
std::string prometheus_family(const std::string& dotted);

/// Render one JSONL time-series sample: a single line (no trailing
/// newline) with wall-clock milliseconds since the sampler's epoch,
/// sweep progress, and the full metrics block of report schema v4.
std::string jsonl_sample(std::uint64_t t_ms, std::uint64_t done,
                         std::uint64_t total,
                         const metrics::Snapshot& snap);

/// Periodic JSONL sampler: `maybe_sample` is called from the sweep's
/// monitor loop (single thread) and appends one line whenever at least
/// `interval_ms` has elapsed since the previous line; `final_sample`
/// writes the quiesced end-of-run totals unconditionally.  The stream is
/// borrowed, not owned.
class MetricsSampler {
 public:
  MetricsSampler(std::ostream* out, std::uint64_t interval_ms);

  void maybe_sample(std::uint64_t done, std::uint64_t total,
                    const metrics::Snapshot& snap);
  void final_sample(std::uint64_t done, std::uint64_t total,
                    const metrics::Snapshot& snap);

  std::uint64_t samples_written() const { return samples_; }

 private:
  void write_line(std::uint64_t done, std::uint64_t total,
                  const metrics::Snapshot& snap);

  std::ostream* out_;
  std::uint64_t interval_nanos_;
  std::uint64_t epoch_nanos_;
  std::uint64_t last_nanos_ = 0;
  std::uint64_t samples_ = 0;
};

}  // namespace rader
