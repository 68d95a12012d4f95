// Event shards: how the parallel engine feeds serial detectors.
//
// The serial engine streams Tool callbacks in the computation's depth-first
// (serial-projection) order as a side effect of executing in that order.  A
// work-stealing execution visits strands in schedule-dependent order, so the
// parallel engine cannot call a serial detector directly — instead each
// strand segment records the SCHEDULE-INDEPENDENT events of its strands
// into its own append-only shard, kept beside the segment's views, and the
// sync splices child shards into the parent's shard at the exact position
// of the spawn, in the same positional fold as the views:
//
//     shard(F) = events(seg₀) ⊕ shard(child₁) ⊕ events(cont₁)
//                             ⊕ shard(child₂) ⊕ events(cont₂) ⊕ …
//
// where seg₀ is F's first segment and contᵢ the continuation segment after
// the i-th spawn.  Splicing at every sync re-creates the depth-first event
// order regardless of which workers executed what, so replaying the root
// frame's shard through a Tool delivers the byte-identical callback sequence
// of a serial NO-STEAL run over the same DAG (the stream Peer-Set is exact
// on, Theorem 4).  Shard events therefore carry no frame or view IDs — those
// are serial-order artifacts, minted by the replayer below in depth-first
// order exactly as runtime/serial_engine.cpp would have.
//
// Reducer IDs need the same treatment: the parallel engine numbers reducers
// in first-REGISTRATION order (racy, schedule-dependent), while the serial
// engine numbers them in first-CONTACT order of the depth-first execution.
// Events carry the engine's slot number, and the replayer renumbers slots in
// order of first appearance in the spliced stream; kBind markers (recorded
// at every view lookup, the serial engine's one silent binding point) pin
// that order even for reducers whose first contact produces no Tool event.
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/types.hpp"

namespace rader {

class Tool;

/// One recorded instrumentation event.  A tagged union kept trivially
/// copyable: shards are bulk-spliced with vector::insert on the join path.
struct ShardEvent {
  enum class Kind : std::uint8_t {
    kFrameEnter,   // a = FrameKind
    kFrameReturn,  // a = FrameKind
    kSync,         // frame executed a non-trivial sync
    kBind,         // silent first-contact marker; slot = engine reducer slot
    kReducerOp,    // a = ReducerOp; slot; label
  };

  Kind kind;
  std::uint8_t a = 0;        // FrameKind / ReducerOp payload
  ReducerId slot = kInvalidReducer;  // engine reducer slot (kBind/kReducerOp)
  const char* label = "";    // SrcTag (string literals; outlive the run)
};

/// A segment's recorded events, in that segment's execution order.
using EventShard = std::vector<ShardEvent>;

/// Replays spliced shards through a serial Tool, minting frame and reducer
/// IDs in depth-first order so the delivered callback stream is
/// byte-identical to a serial no-steal run's.
///
/// Protocol (all on one thread — worker 0 of the parallel engine):
///   begin();            // on_run_begin + root on_frame_enter
///   feed(shard); ...    // any prefix-preserving chunking of the root shard
///   end();              // root on_frame_return + on_run_end
///
/// feed() may be called many times: the engine drains the root frame's
/// shard at every root-level sync, so detector state and shard memory stay
/// proportional to the live computation, not the whole run.
class ShardReplayer {
 public:
  explicit ShardReplayer(Tool* tool) : tool_(tool) {}

  void begin();
  void feed(const EventShard& shard);
  void end();

 private:
  ReducerId map_slot(ReducerId slot);

  Tool* tool_;
  FrameId next_frame_ = 0;
  std::vector<FrameId> frame_stack_;   // open frames, serial IDs
  std::vector<ReducerId> slot_to_id_;  // engine slot -> serial reducer id
  ReducerId next_reducer_ = 0;
};

}  // namespace rader
