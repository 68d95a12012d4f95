// The Peer-Set algorithm (Section 3 of the paper, pseudocode in Figure 3).
//
// Peer-Set detects VIEW-READ RACES: two reducer-reads (create / set_value /
// get_value / destroy) executed at strands u, v with peers(u) != peers(v),
// where peers(u) = { w : w ‖ u }.  By the paper's "peer-set semantics", the
// view visible at v is guaranteed to reflect the updates since u only when
// u and v have the same peers — so a read at a strand with a different peer
// set may observe a nondeterministic, schedule-dependent value.
//
// Per active function F the algorithm maintains:
//   F.ls — local-spawn count: spawns since F last synced;
//   F.as — ancestor-spawn count: spawns each ancestor performed since it
//          last synced, inherited at frame creation;
//   F.SS — completed descendants with the same peer set as F's 1st strand;
//   F.SP — completed descendants with the same peer set as the last
//          continuation strand F executed;
//   F.P  — all other completed descendants;
// plus the reducer shadow space reader(h) = (last reading frame, its spawn
// count).  A read races iff the last reader sits in a P bag or the spawn
// counts differ (Lemmas 2–3: same peer set iff the parse-tree path between
// the reads is all S nodes).
//
// Runs in O(T α(x, x)) for a T-time serial execution with x reducers
// (Theorem 1); it is exact — reports a view-read race iff one exists
// (Theorem 4).
#pragma once

#include <vector>

#include "core/race_report.hpp"
#include "dsu/disjoint_set.hpp"
#include "shadow/reducer_shadow.hpp"
#include "tool/tool.hpp"

namespace rader {

class PeerSetDetector final : public Tool {
 public:
  explicit PeerSetDetector(RaceLog* log) : log_(log) {}

  void on_run_begin() override;
  void on_frame_enter(FrameId frame, FrameId parent, FrameKind kind,
                      ViewId vid) override;
  void on_frame_return(FrameId frame, FrameId parent, FrameKind kind) override;
  void on_sync(FrameId frame) override;
  void on_reducer_op(ReducerOp op, ReducerId h, SrcTag tag) override;

 private:
  struct FrameState {
    dsu::Node node = dsu::kInvalidNode;
    std::uint64_t as = 0;  // ancestor-spawn count
    std::uint64_t ls = 0;  // local-spawn count
    dsu::Bag ss;
    dsu::Bag sp;
    dsu::Bag p;
  };

  dsu::DisjointSets ds_;
  std::vector<FrameState> stack_;
  shadow::ReducerShadow reader_;
  RaceLog* log_;
};

}  // namespace rader
