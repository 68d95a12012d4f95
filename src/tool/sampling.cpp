#include "tool/sampling.hpp"

#include <algorithm>

#include "support/common.hpp"
#include "support/hash.hpp"
#include "support/metrics.hpp"

namespace rader {

namespace {

// Distinguishes the per-reducer sampling stream from the per-granule one
// (reducer ids are small integers that would otherwise collide with the
// first few granules of a zero-based heap).
constexpr std::uint64_t kReducerSalt = 0x7265647563657273ull;  // "reducers"

std::uint64_t threshold_for(double rate) {
  if (rate <= 0.0) return 0;
  // rate < 1 here (>= 1 short-circuits to all_); 2^64 * rate therefore
  // fits, but clamp against FP rounding right at the boundary.
  const double scaled = rate * 18446744073709551616.0;  // 2^64
  if (scaled >= 18446744073709551615.0) {
    return ~std::uint64_t{0};
  }
  return static_cast<std::uint64_t>(scaled);
}

}  // namespace

std::uint64_t sampling_seed_for_spec(std::uint64_t seed,
                                     std::string_view spec_describe) {
  return hash_combine(mix64(seed), fnv1a(spec_describe));
}

SamplingTool::SamplingTool(Tool* inner, const SamplingConfig& config)
    : inner_(inner),
      threshold_(threshold_for(config.rate)),
      seed_(config.seed),
      block_bits_(config.block_bits),
      all_(config.rate >= 1.0) {
  RADER_CHECK_MSG(inner_ != nullptr, "SamplingTool needs an inner tool");
}

SpecSampler::SpecSampler(Tool* detector, const SamplingConfig& config,
                         std::string_view spec_describe)
    : detector_(detector) {
  if (!config.enabled) return;
  SamplingConfig cfg = config;
  cfg.seed = sampling_seed_for_spec(cfg.seed, spec_describe);
  sampler_ = std::make_unique<SamplingTool>(detector, cfg);
}

bool SamplingTool::sampled(std::uintptr_t b) const {
  return mix64(static_cast<std::uint64_t>(b) ^ seed_) < threshold_;
}

bool SamplingTool::sampled_reducer(ReducerId h) const {
  return mix64(static_cast<std::uint64_t>(h) ^ seed_ ^ kReducerSalt) <
         threshold_;
}

void SamplingTool::on_access(AccessKind kind, std::uintptr_t addr,
                             std::size_t size, bool view_aware, ViewId vid,
                             SrcTag tag) {
  // P >= 1 (and degenerate sizes): VERBATIM forwarding — no splitting, no
  // counters — so a P=1 sampled run is byte-identical to an unsampled one.
  if (all_ || size == 0) {
    inner_->on_access(kind, addr, size, view_aware, vid, tag);
    return;
  }
  const std::uintptr_t last_byte = access_last_byte(addr, size);
  const std::uintptr_t first = addr >> block_bits_;
  const std::uintptr_t last = last_byte >> block_bits_;
  if (first == last) {
    // Fast path: the access fits one sampling block (the common case with
    // page-sized blocks) — one hash, forward or drop whole.
    if (sampled(first)) {
      metrics::bump(metrics::Counter::kSampledAccesses);
      metrics::record(metrics::Histogram::kSampledRunBytes, size);
      inner_->on_access(kind, addr, size, view_aware, vid, tag);
    } else {
      metrics::bump(metrics::Counter::kSampledDropped);
    }
    return;
  }
  const std::uintptr_t block_mask = (std::uintptr_t{1} << block_bits_) - 1;
  // Walk the covered sampling blocks (wraparound-safe: `last` may be the
  // top index) and forward each maximal run of consecutive sampled blocks
  // as one sub-access with its TRUE byte range.
  std::uintptr_t run_start = 0;
  bool in_run = false;
  const auto flush = [&](std::uintptr_t run_end) {
    const std::uintptr_t sub_addr = std::max(addr, run_start << block_bits_);
    const std::uintptr_t sub_last =
        std::min(last_byte, (run_end << block_bits_) | block_mask);
    const std::size_t sub_size =
        static_cast<std::size_t>(sub_last - sub_addr) + 1;
    metrics::bump(metrics::Counter::kSampledAccesses);
    metrics::record(metrics::Histogram::kSampledRunBytes, sub_size);
    inner_->on_access(kind, sub_addr, sub_size, view_aware, vid, tag);
  };
  for (std::uintptr_t b = first;; ++b) {
    if (sampled(b)) {
      if (!in_run) {
        run_start = b;
        in_run = true;
      }
    } else {
      metrics::bump(metrics::Counter::kSampledDropped);
      if (in_run) {
        flush(b - 1);
        in_run = false;
      }
    }
    if (b == last) break;
  }
  if (in_run) flush(last);
}

void SamplingTool::on_reducer_op(ReducerOp op, ReducerId h, SrcTag tag) {
  if (all_ || sampled_reducer(h)) inner_->on_reducer_op(op, h, tag);
}

}  // namespace rader
