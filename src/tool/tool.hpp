// Tool interface: the instrumentation boundary between the runtime and the
// detection algorithms.
//
// The paper's Rader prototype "uses compiler instrumentation to track memory
// accesses and parallel control dependencies" (GCC hooks for parallel
// control, ThreadSanitizer hooks for reads/writes).  This repository replaces
// the compiler with a library boundary that delivers the *same event stream*:
// the serial engine invokes one Tool callback per parallel-control event,
// per simulated steal, per reduce operation, per reducer operation, and per
// annotated memory access.
//
// A detector is simply a Tool.  The "empty tool" used as the Figure 8
// baseline is an instance of this base class with every callback left as the
// default no-op, so a run with it measures pure instrumentation cost.
//
// Event vocabulary (mirrors Sections 3, 5 of the paper):
//   on_frame_enter / on_frame_return  — F spawns/calls G; G returns to F.
//                                       Reduce operations enter as frames of
//                                       kind kReduce.
//   on_sync                           — F executes cilk_sync (including the
//                                       implicit sync before every return).
//   on_steal                          — a continuation of F was "stolen" per
//                                       the steal specification; a fresh view
//                                       ID was minted.
//   on_reduce                         — the runtime merged the two newest
//                                       view epochs (SP+ pops its P stack
//                                       here, *before* the user Reduce code
//                                       runs as a kReduce frame).
//   on_access                         — an annotated read/write, tagged with
//                                       whether it executed view-aware
//                                       (inside Update/CreateIdentity/Reduce)
//                                       and with the current view ID.
//   on_reducer_op                     — reducer lifecycle/reads/updates;
//                                       kCreate/kSetValue/kGetValue/kDestroy
//                                       are the paper's "reducer-reads".
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "runtime/types.hpp"

namespace rader {

class Tool {
 public:
  Tool() = default;
  virtual ~Tool() = default;

  Tool(const Tool&) = delete;
  Tool& operator=(const Tool&) = delete;

  /// A root computation is about to run / has finished.
  virtual void on_run_begin() {}
  virtual void on_run_end() {}

  /// Frame `frame` was entered from `parent` (kInvalidFrame for the root).
  /// `vid` is the view ID current at entry.
  virtual void on_frame_enter(FrameId frame, FrameId parent, FrameKind kind,
                              ViewId vid) {
    (void)frame, (void)parent, (void)kind, (void)vid;
  }

  /// Frame `frame` (entered with `kind`) returned to `parent`.  The frame has
  /// already executed its implicit sync.
  virtual void on_frame_return(FrameId frame, FrameId parent, FrameKind kind) {
    (void)frame, (void)parent, (void)kind;
  }

  /// Frame `frame` executed a cilk_sync (all simulated reduces for the sync
  /// block have already been delivered).
  virtual void on_sync(FrameId frame) { (void)frame; }

  /// The continuation at `cont_index` (within `frame`'s current sync block)
  /// was stolen; subsequent strands run on fresh view `new_vid`.
  virtual void on_steal(FrameId frame, std::uint32_t cont_index,
                        ViewId new_vid) {
    (void)frame, (void)cont_index, (void)new_vid;
  }

  /// The two newest view epochs of `frame` merged: `right_vid` was reduced
  /// into `left_vid` (which survives).  Delivered before the user Reduce code
  /// (if any) runs in kReduce frames.
  virtual void on_reduce(FrameId frame, ViewId left_vid, ViewId right_vid) {
    (void)frame, (void)left_vid, (void)right_vid;
  }

  /// Annotated memory access of `size` bytes at `addr` by the current strand.
  /// `view_aware` is true inside Update / CreateIdentity / Reduce execution;
  /// `vid` is the view ID associated with the executing strand.
  virtual void on_access(AccessKind kind, std::uintptr_t addr,
                         std::size_t size, bool view_aware, ViewId vid,
                         SrcTag tag) {
    (void)kind, (void)addr, (void)size, (void)view_aware, (void)vid, (void)tag;
  }

  /// Reducer operation on reducer `h` by the current strand.
  virtual void on_reducer_op(ReducerOp op, ReducerId h, SrcTag tag) {
    (void)op, (void)h, (void)tag;
  }

  /// Memory [addr, addr+size) was freed: any recorded accesses to it are
  /// stale and a later allocation may legitimately reuse the addresses.
  /// Emitted when the runtime destroys a reduced-away view, and by user
  /// code via rader::shadow_clear — the analog of a race detector's
  /// free()/delete interception.
  virtual void on_clear(std::uintptr_t addr, std::size_t size) {
    (void)addr, (void)size;
  }
};

/// Fan-out tool: forwards every event to each registered tool in order.
/// Used by tests to run a detector and the DAG recorder side by side.
class ToolChain final : public Tool {
 public:
  void add(Tool* t) { tools_.push_back(t); }

  void on_run_begin() override {
    for (Tool* t : tools_) t->on_run_begin();
  }
  void on_run_end() override {
    for (Tool* t : tools_) t->on_run_end();
  }
  void on_frame_enter(FrameId f, FrameId p, FrameKind k, ViewId v) override {
    for (Tool* t : tools_) t->on_frame_enter(f, p, k, v);
  }
  void on_frame_return(FrameId f, FrameId p, FrameKind k) override {
    for (Tool* t : tools_) t->on_frame_return(f, p, k);
  }
  void on_sync(FrameId f) override {
    for (Tool* t : tools_) t->on_sync(f);
  }
  void on_steal(FrameId f, std::uint32_t c, ViewId v) override {
    for (Tool* t : tools_) t->on_steal(f, c, v);
  }
  void on_reduce(FrameId f, ViewId l, ViewId r) override {
    for (Tool* t : tools_) t->on_reduce(f, l, r);
  }
  void on_access(AccessKind k, std::uintptr_t a, std::size_t s, bool va,
                 ViewId v, SrcTag tag) override {
    for (Tool* t : tools_) t->on_access(k, a, s, va, v, tag);
  }
  void on_reducer_op(ReducerOp op, ReducerId h, SrcTag tag) override {
    for (Tool* t : tools_) t->on_reducer_op(op, h, tag);
  }
  void on_clear(std::uintptr_t addr, std::size_t size) override {
    for (Tool* t : tools_) t->on_clear(addr, size);
  }

 private:
  std::vector<Tool*> tools_;
};

/// The Figure-8 baseline: identical instrumentation, empty callbacks.
using EmptyTool = Tool;

}  // namespace rader
