#include "core/peerset.hpp"

#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace rader {

void PeerSetDetector::on_run_begin() {
  ds_.clear();
  stack_.clear();
  reader_.clear();
}

void PeerSetDetector::on_frame_enter(FrameId frame, FrameId, FrameKind kind,
                                     ViewId) {
  metrics::bump(metrics::Counter::kFramesEntered);
  // Figure 3, "F calls or spawns G", lines 1–4 (spawn bookkeeping in F):
  if (!stack_.empty() && kind == FrameKind::kSpawned) {
    FrameState& parent = stack_.back();
    parent.ls += 1;
    parent.p.merge_from(parent.sp);
    parent.sp = dsu::Bag(&ds_, dsu::BagKind::kSP);
  }
  // Lines 5–9 (child initialization):
  FrameState g;
  g.node = ds_.make_node();
  RADER_DCHECK(g.node == frame);
  (void)frame;
  if (!stack_.empty()) {
    const FrameState& parent = stack_.back();
    g.as = parent.as + parent.ls;
  }
  g.ss = dsu::Bag(&ds_, g.node, dsu::BagKind::kSS);
  g.sp = dsu::Bag(&ds_, dsu::BagKind::kSP);
  g.p = dsu::Bag(&ds_, dsu::BagKind::kP);
  stack_.push_back(std::move(g));
}

void PeerSetDetector::on_frame_return(FrameId, FrameId, FrameKind kind) {
  FrameState child = std::move(stack_.back());
  stack_.pop_back();
  if (stack_.empty()) return;  // root returned
  // Cilk functions implicitly sync before returning, so child.sp is empty.
  RADER_DCHECK(child.sp.empty());
  FrameState& parent = stack_.back();
  // Figure 3, "G returns to F":
  parent.p.merge_from(child.p);
  if (kind == FrameKind::kSpawned || kind == FrameKind::kReduce) {
    // Every descendant of a spawned child is in parallel with the
    // continuation in F, hence has a different peer set than any F strand.
    parent.p.merge_from(child.ss);
  } else if (parent.ls == 0) {
    // Called with no outstanding spawns: G's first strand shares the peer
    // set of F's first strand.
    parent.ss.merge_from(child.ss);
  } else {
    // Called with outstanding spawns: G's first strand shares the peer set
    // of F's last executed continuation strand.
    parent.sp.merge_from(child.ss);
  }
}

void PeerSetDetector::on_sync(FrameId) {
  // Figure 3, "F syncs":
  FrameState& f = stack_.back();
  f.ls = 0;
  f.p.merge_from(f.sp);
  f.sp = dsu::Bag(&ds_, dsu::BagKind::kSP);
}

void PeerSetDetector::on_reducer_op(ReducerOp op, ReducerId h, SrcTag tag) {
  if (!is_reducer_read(op)) return;  // Update/CreateIdentity/Reduce: not reads
  FrameState& f = stack_.back();
  const std::uint64_t spawn_count = f.as + f.ls;
  // Figure 3, "F reads reducer h":
  if (reader_.has(h)) {
    auto& entry = reader_[h];
    const bool prior_in_p_bag =
        ds_.meta_of(entry.reader).kind == dsu::BagKind::kP;
    if (prior_in_p_bag || entry.spawn_count != spawn_count) {
      // Granule key: reducer id in the view-read namespace (top bit set) so
      // it cannot collide with detectors keying on memory granules.
      trace::emit_conflict(static_cast<FrameId>(f.node),
                           (std::uint64_t{1} << 63) | h, h,
                           static_cast<FrameId>(entry.reader),
                           trace::kConflictViewRead, tag.label);
      log_->report_view_read(make_view_read_race(
          h, static_cast<FrameId>(entry.reader),
          static_cast<FrameId>(f.node), entry.label, tag.label));
    }
  }
  auto& entry = reader_[h];
  entry.reader = f.node;
  entry.spawn_count = spawn_count;
  entry.label = tag.label;
}

}  // namespace rader
