#include "core/spplus.hpp"

#include "support/metrics.hpp"

namespace rader {

std::unique_ptr<SpPlusDetector> SpPlusDetector::fork(RaceLog* log) const {
  auto copy = std::make_unique<SpPlusDetector>(log, granule_bits_);
  copy->ds_ = ds_;
  copy->stack_ = stack_;
  copy->p_bags_ = p_bags_;
  for (auto& f : copy->stack_) f.s.rebind(&copy->ds_);
  for (auto& b : copy->p_bags_) b.rebind(&copy->ds_);
  copy->shadow_ = shadow_.fork();
  return copy;
}

void SpPlusDetector::on_run_begin() {
  RADER_CHECK_MSG(granule_bits_ < 12, "granule_bits must be < 12");
  ds_.clear();
  stack_.clear();
  p_bags_.clear();
  shadow_.clear();
}

void SpPlusDetector::on_frame_enter(FrameId frame, FrameId, FrameKind kind,
                                    ViewId vid) {
  metrics::bump(metrics::Counter::kFramesEntered);
  // Figure 6, "F spawns or calls G": G.S = MakeBag(G, Top(F.P).vid);
  // G.P = ⟨MakeBag(∅, Top(F.P).vid)⟩.  The engine hands us the view ID
  // current at entry, which equals our Top(F.P).vid invariantly.
  FrameState g;
  g.node = ds_.make_node();
  RADER_DCHECK(g.node == frame);
  (void)frame;
  g.is_reduce = (kind == FrameKind::kReduce);
  RADER_DCHECK(p_bags_.empty() || p_bags_.back().vid() == vid);
  g.s = dsu::Bag(&ds_, g.node, dsu::BagKind::kS, vid);
  g.p_base = p_bags_.size();
  p_bags_.emplace_back(&ds_, dsu::BagKind::kP, vid);
  stack_.push_back(g);
}

void SpPlusDetector::on_frame_return(FrameId, FrameId, FrameKind kind) {
  FrameState child = stack_.back();
  stack_.pop_back();
  // The implicit sync before return leaves exactly one (empty) P bag.
  RADER_DCHECK(p_bags_.size() == child.p_base + 1);
  RADER_DCHECK(p_bags_.back().empty());
  p_bags_.pop_back();
  if (stack_.empty()) return;  // root returned
  FrameState& parent = stack_.back();
  if (kind == FrameKind::kCalled) {
    // "Called G returns to F: F.S ∪= G.S."
    parent.s.merge_from(child.s);
  } else {
    // "Spawned G returns to F: Top(F.P) ∪= G.S."  Reduce invocations return
    // the same way: the reduce strand's IDs join the merged top P bag, so
    // the reduce strand stays parallel with other views' descendants but
    // serializes (same vid) with the views it merged.
    p_bags_.back().merge_from(child.s);
  }
}

void SpPlusDetector::on_sync(FrameId) {
  // "F syncs: F.S ∪= Top(F.P); Top(F.P) = MakeBag(∅, F.S.vid)."  All
  // reduces for the sync block have been delivered, so one P bag remains.
  FrameState& f = stack_.back();
  RADER_DCHECK(p_bags_.size() == f.p_base + 1);
  f.s.merge_from(p_bags_.back());
  p_bags_.back() = dsu::Bag(&ds_, dsu::BagKind::kP, f.s.vid());
}

void SpPlusDetector::on_steal(FrameId, std::uint32_t, ViewId new_vid) {
  // "F executes a stolen continuation: Push(F.P, MakeBag(∅, new view ID))."
  p_bags_.emplace_back(&ds_, dsu::BagKind::kP, new_vid);
}

void SpPlusDetector::on_reduce(FrameId, ViewId left_vid, ViewId right_vid) {
  // "F executes Reduce: p = Pop(F.P); Top(F.P) ∪= p."  The destination (the
  // dominating view's bag) keeps its view ID.
  RADER_DCHECK(p_bags_.size() >= stack_.back().p_base + 2);
  dsu::Bag popped = p_bags_.back();
  p_bags_.pop_back();
  RADER_DCHECK(popped.vid() == right_vid);
  (void)right_vid;
  RADER_DCHECK(p_bags_.back().vid() == left_vid);
  (void)left_vid;
  p_bags_.back().merge_from(popped);
}

void SpPlusDetector::on_clear(std::uintptr_t addr, std::size_t size) {
  if (size == 0) return;
  shadow_.clear_range(addr >> granule_bits_,
                      access_last_byte(addr, size) >> granule_bits_);
}

void SpPlusDetector::on_access(AccessKind kind, std::uintptr_t addr,
                               std::size_t size, bool view_aware, ViewId,
                               SrcTag tag) {
  const FrameState& f = stack_.back();
  const dsu::ViewId cur_vid = p_bags_.back().vid();
  const auto fid = static_cast<FrameId>(f.node);
  shadow_.check_access(
      kind == AccessKind::kWrite, addr, size, granule_bits_, f.node,
      [&](shadow::AccessShadow::Payload prior) {
        // Figure 6: a view-oblivious access races with a prior access in any
        // P bag, a view-aware one only with a P bag of a different view.
        // The prior is replaced when in series (S bag) or — inside a Reduce
        // invocation — when on the view being merged (same vid).
        const auto& meta = ds_.meta_of(prior);
        const bool same_view = view_aware && meta.vid == cur_vid;
        return shadow::AccessShadow::Verdict{
            meta.kind == dsu::BagKind::kP && !same_view,
            meta.kind == dsu::BagKind::kS || (f.is_reduce && same_view)};
      },
      [&](std::uintptr_t g, std::uintptr_t b,
          shadow::AccessShadow::Payload prior, bool prior_was_write) {
        report_access_race(log_, g, b, kind, view_aware, prior_was_write,
                           prior, fid, tag.label);
      });
}

}  // namespace rader
