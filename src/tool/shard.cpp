#include "tool/shard.hpp"

#include "support/common.hpp"
#include "tool/tool.hpp"

namespace rader {

// The replayed stream simulates a steal-free execution, which lives entirely
// in the base view epoch: every strand sees view ID 0, exactly like
// SerialEngine under spec::NoSteal (epochs_.top_vid() is the base epoch for
// the whole run).
namespace {
constexpr ViewId kBaseView = 0;
}  // namespace

void ShardReplayer::begin() {
  next_frame_ = 0;
  frame_stack_.clear();
  slot_to_id_.clear();
  next_reducer_ = 0;
  tool_->on_run_begin();
  const FrameId root = next_frame_++;
  tool_->on_frame_enter(root, kInvalidFrame, FrameKind::kRoot, kBaseView);
  frame_stack_.push_back(root);
}

ReducerId ShardReplayer::map_slot(ReducerId slot) {
  RADER_DCHECK(slot != kInvalidReducer);
  if (slot >= slot_to_id_.size()) {
    slot_to_id_.resize(slot + 1, kInvalidReducer);
  }
  if (slot_to_id_[slot] == kInvalidReducer) {
    slot_to_id_[slot] = next_reducer_++;
  }
  return slot_to_id_[slot];
}

void ShardReplayer::feed(const EventShard& shard) {
  for (const ShardEvent& e : shard) {
    switch (e.kind) {
      case ShardEvent::Kind::kFrameEnter: {
        const FrameId id = next_frame_++;
        tool_->on_frame_enter(id, frame_stack_.back(),
                              static_cast<FrameKind>(e.a), kBaseView);
        frame_stack_.push_back(id);
        break;
      }
      case ShardEvent::Kind::kFrameReturn: {
        RADER_CHECK_MSG(frame_stack_.size() > 1,
                        "shard replay underflowed the frame stack");
        const FrameId id = frame_stack_.back();
        frame_stack_.pop_back();
        tool_->on_frame_return(id, frame_stack_.back(),
                               static_cast<FrameKind>(e.a));
        break;
      }
      case ShardEvent::Kind::kSync:
        tool_->on_sync(frame_stack_.back());
        break;
      case ShardEvent::Kind::kBind:
        // First contact may carry no Tool event (a bare view lookup); the
        // marker exists purely to pin the serial renumbering order.
        (void)map_slot(e.slot);
        break;
      case ShardEvent::Kind::kReducerOp:
        tool_->on_reducer_op(static_cast<ReducerOp>(e.a), map_slot(e.slot),
                             SrcTag{e.label});
        break;
    }
  }
}

void ShardReplayer::end() {
  RADER_CHECK_MSG(frame_stack_.size() == 1,
                  "shard replay ended with frames still open");
  tool_->on_frame_return(frame_stack_.back(), kInvalidFrame, FrameKind::kRoot);
  frame_stack_.clear();
  tool_->on_run_end();
}

}  // namespace rader
