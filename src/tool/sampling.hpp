// O(1)-samples access sampling: a Tool wrapper dropping unsampled granules.
//
// The source paper's Figure-7 discipline keeps full-precision overhead
// acceptable for testing runs, but an always-on production mode needs
// overhead independent of footprint.  "Dynamic Race Detection with O(1)
// Samples" (PAPERS.md) supplies the theory: sample each memory GRANULE
// with probability P and run the precise detector on the sampled
// subset — any race whose two endpoints land on a sampled granule is
// still reported exactly, and expected detector work shrinks to O(P x
// footprint) while non-access events stay exact.
//
// SamplingTool wraps any inner Tool (all three detectors — they all speak
// the same callback vocabulary) and filters ONLY the data plane:
//
//   * on_access       — split into maximal runs of consecutive SAMPLED
//                       blocks (2^block_bits bytes, 4096 by default — the
//                       sampling granule); each run is forwarded as a
//                       sub-access with its TRUE byte range, so the inner
//                       detector still sees exact addresses.  Blocks keep
//                       the filter O(1) per access for typical sizes —
//                       hashing every byte-granule would make the wrapper
//                       itself O(size) — and the page-sized default keeps
//                       the sampled footprint page-LOCAL, so the packed
//                       shadow's lazy per-page epoch resets also scale
//                       with P instead of with the number of scattered
//                       sample islands.  detector.sampled_accesses counts
//                       forwarded runs, detector.sampled_dropped dropped
//                       blocks, detector.sampled_run_bytes the forwarded
//                       byte histogram.
//   * on_reducer_op   — sampled per REDUCER (salted hash of its id), so a
//                       reducer's lifecycle is kept or dropped as a unit.
//   * everything else — control plane (frames, syncs, steals, reduces,
//                       clears, run begin/end): forwarded verbatim, so the
//                       inner detector's series-parallel state is exact.
//
// Determinism: block b is sampled iff mix64(b ^ seed) < P * 2^64.
// No RNG stream, no per-run state — within one process the same (seed,
// rate) pair samples the same blocks in every run, on every worker, at
// every --jobs, which is what makes sampled sweeps jobs-invariant.  Blocks
// are absolute addresses, so the data they cover follows the process's
// memory layout: under ASLR, or from another build, a second process
// samples different data, and a sampled report is not reproducible from
// one process to the next.  The sampled sets are NESTED as P grows (the
// threshold only rises), giving provably monotone recall — the property
// the statistical tests assert.
// At P >= 1 every event is forwarded VERBATIM (no splitting), so a P=1
// sampled run is byte-identical to an unsampled one by construction.
//
// Sweeps derive a per-spec seed (sampling_seed_for_spec) by hashing the
// user seed with the spec's describe() string: each steal specification
// samples independently, but identically across runs and workers.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>

#include "tool/tool.hpp"

namespace rader {

/// Sampling knobs, threaded from the CLI through driver and sweep.
struct SamplingConfig {
  bool enabled = false;   // presence of --sample-rate
  double rate = 1.0;      // P in [0,1]; >= 1 forwards everything
  std::uint64_t seed = 0x5eed;
  unsigned block_bits = 12;  // sampling granule: 2^block_bits bytes
};

/// Deterministic per-spec seed: the user seed salted with the steal
/// specification's describe() string (worker- and jobs-independent).
std::uint64_t sampling_seed_for_spec(std::uint64_t seed,
                                     std::string_view spec_describe);

/// Per-granule Bernoulli filter in front of an inner detector; see the
/// file comment.  The inner tool is borrowed.
class SamplingTool final : public Tool {
 public:
  SamplingTool(Tool* inner, const SamplingConfig& config);

  /// True iff sampling block `b` (byte address >> block_bits) is in the
  /// sampled set.
  bool sampled(std::uintptr_t b) const;
  /// True iff reducer `h`'s operations are forwarded.
  bool sampled_reducer(ReducerId h) const;

  void on_run_begin() override { inner_->on_run_begin(); }
  void on_run_end() override { inner_->on_run_end(); }
  void on_frame_enter(FrameId f, FrameId p, FrameKind k, ViewId v) override {
    inner_->on_frame_enter(f, p, k, v);
  }
  void on_frame_return(FrameId f, FrameId p, FrameKind k) override {
    inner_->on_frame_return(f, p, k);
  }
  void on_sync(FrameId f) override { inner_->on_sync(f); }
  void on_steal(FrameId f, std::uint32_t c, ViewId v) override {
    inner_->on_steal(f, c, v);
  }
  void on_reduce(FrameId f, ViewId l, ViewId r) override {
    inner_->on_reduce(f, l, r);
  }
  void on_access(AccessKind kind, std::uintptr_t addr, std::size_t size,
                 bool view_aware, ViewId vid, SrcTag tag) override;
  void on_reducer_op(ReducerOp op, ReducerId h, SrcTag tag) override;
  void on_clear(std::uintptr_t addr, std::size_t size) override {
    // Verbatim: clearing restricted state the inner tool never recorded
    // is a no-op, and sampled granules MUST see their clears.
    inner_->on_clear(addr, size);
  }

 private:
  Tool* inner_;                    // the wrapped detector (borrowed)
  std::uint64_t threshold_;        // sampled iff mix64(b ^ seed) < threshold_
  std::uint64_t seed_;
  unsigned block_bits_;
  bool all_;                       // P >= 1: forward verbatim
};

/// The tool one run under a steal spec feeds: `detector` itself, or, when
/// `config` is enabled, a SamplingTool over it seeded for that spec
/// (sampling_seed_for_spec).
class SpecSampler {
 public:
  SpecSampler(Tool* detector, const SamplingConfig& config,
              std::string_view spec_describe);

  Tool* tool() { return sampler_ ? sampler_.get() : detector_; }

 private:
  Tool* detector_;
  std::unique_ptr<SamplingTool> sampler_;
};

}  // namespace rader
