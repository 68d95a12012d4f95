#include "core/spbags.hpp"

#include "support/metrics.hpp"

namespace rader {

std::unique_ptr<Tool> SpBagsDetector::fork(RaceLog* log) const {
  auto copy = std::make_unique<SpBagsDetector>(log, granule_bits_);
  copy->ds_ = ds_;
  copy->stack_ = stack_;
  for (auto& f : copy->stack_) {
    f.s.rebind(&copy->ds_);
    f.p.rebind(&copy->ds_);
  }
  copy->shadow_ = shadow_.fork();
  return copy;
}

void SpBagsDetector::on_run_begin() {
  RADER_CHECK_MSG(granule_bits_ < 12, "granule_bits must be < 12");
  ds_.clear();
  stack_.clear();
  shadow_.clear();
}

void SpBagsDetector::on_frame_enter(FrameId frame, FrameId, FrameKind, ViewId) {
  metrics::bump(metrics::Counter::kFramesEntered);
  FrameState f;
  f.node = ds_.make_node();
  RADER_DCHECK(f.node == frame);  // frame IDs and DSU nodes advance together
  (void)frame;
  f.s = dsu::Bag(&ds_, f.node, dsu::BagKind::kS);
  f.p = dsu::Bag(&ds_, dsu::BagKind::kP);
  stack_.push_back(std::move(f));
}

void SpBagsDetector::on_frame_return(FrameId, FrameId, FrameKind kind) {
  FrameState child = std::move(stack_.back());
  stack_.pop_back();
  if (stack_.empty()) return;  // root returned
  FrameState& parent = stack_.back();
  // SP-bags: "If F spawned G: F.P = F.P ∪ G.S ∪ G.P.
  //           If F called G:  F.S = F.S ∪ G.S, F.P = F.P ∪ G.P."
  // Reduce frames (which SP-bags does not know about) are treated like
  // spawned children; under a no-steal spec none exist.
  parent.p.merge_from(child.p);
  if (kind == FrameKind::kCalled) {
    parent.s.merge_from(child.s);
  } else {
    parent.p.merge_from(child.s);
  }
}

void SpBagsDetector::on_sync(FrameId) {
  FrameState& f = stack_.back();
  // "F syncs: F.S = F.S ∪ F.P, F.P = ∅."
  f.s.merge_from(f.p);
}

void SpBagsDetector::on_clear(std::uintptr_t addr, std::size_t size) {
  if (size == 0) return;
  shadow_.clear_range(addr >> granule_bits_,
                      access_last_byte(addr, size) >> granule_bits_);
}

void SpBagsDetector::on_access(AccessKind kind, std::uintptr_t addr,
                               std::size_t size, bool, ViewId, SrcTag tag) {
  const auto fid = static_cast<FrameId>(stack_.back().node);
  shadow_.check_access(
      kind == AccessKind::kWrite, addr, size, granule_bits_, stack_.back().node,
      [&](shadow::AccessShadow::Payload prior) {
        // A prior access in a P bag is parallel; one in an S bag is in
        // series and gets replaced.
        const dsu::BagKind k = ds_.meta_of(prior).kind;
        return shadow::AccessShadow::Verdict{k == dsu::BagKind::kP,
                                             k == dsu::BagKind::kS};
      },
      [&](std::uintptr_t g, std::uintptr_t b,
          shadow::AccessShadow::Payload prior, bool prior_was_write) {
        report_access_race(log_, g, b, kind, false, prior_was_write,
                           prior, fid, tag.label);
      });
}

}  // namespace rader
