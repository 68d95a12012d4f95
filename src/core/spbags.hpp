// The SP-bags algorithm of Feng and Leiserson — the baseline detector.
//
// SP-bags detects determinacy races in Cilk computations WITHOUT reducers:
// it maintains, per active function F, an S bag (completed descendants in
// series with the currently executing strand, plus F itself) and a P bag
// (completed descendants logically in parallel with it), plus reader/writer
// shadow spaces, and checks every access against them.
//
// This is the algorithm embodied by the Nondeterminator and Cilk Screen.
// As Section 2 of the paper demonstrates (Figure 1), it "will not catch
// [the] race [in Figure 1], because the determinacy race involves a
// view-aware instruction executed in a Reduce operation" — it has no notion
// of views.  We implement it (a) as the correctness baseline for ordinary
// programs and (b) to reproduce exactly that miss in the tests.
//
// Under a no-steal specification SP+ degenerates to SP-bags; this standalone
// implementation keeps the baseline honest and independently testable.
#pragma once

#include <vector>

#include "core/race_report.hpp"
#include "dsu/disjoint_set.hpp"
#include "shadow/access_shadow.hpp"
#include "tool/tool.hpp"

namespace rader {

class SpBagsDetector final : public Tool {
 public:
  /// `granule_bits` sets the shadow granularity: one shadow cell per
  /// 2^granule_bits bytes.  0 = byte-exact (the default, preserving the
  /// exact iff guarantee); 3 = word granularity, trading possible false
  /// sharing of a cell by adjacent objects for ~8x fewer shadow operations
  /// (the ThreadSanitizer-style tradeoff; see bench/ablation_granularity).
  explicit SpBagsDetector(RaceLog* log, unsigned granule_bits = 0)
      : granule_bits_(granule_bits), log_(log) {}

  void on_run_begin() override;
  void on_frame_enter(FrameId frame, FrameId parent, FrameKind kind,
                      ViewId vid) override;
  void on_frame_return(FrameId frame, FrameId parent, FrameKind kind) override;
  void on_sync(FrameId frame) override;
  void on_access(AccessKind kind, std::uintptr_t addr, std::size_t size,
                 bool view_aware, ViewId vid, SrcTag tag) override;
  void on_clear(std::uintptr_t addr, std::size_t size) override;

 private:
  struct FrameState {
    dsu::Node node = dsu::kInvalidNode;
    dsu::Bag s;
    dsu::Bag p;
  };

  unsigned granule_bits_;
  dsu::DisjointSets ds_;
  std::vector<FrameState> stack_;
  shadow::AccessShadow shadow_;
  RaceLog* log_;
};

}  // namespace rader
