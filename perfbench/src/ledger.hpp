// Bench-side instrumentation for the traced run.
//
// Both tools sit on the public Tool boundary, so the program itself carries
// no benchmark code:
//
//  * TimedTool decorates another tool and counts and times every callback
//    by kind.  Wrapping an EmptyTool gives the floor (clock reads plus one
//    empty virtual call); a detector's self time per kind is its decorated
//    time minus that floor.
//  * ShadowOnlyTool drives shadow::AccessShadow per granule the way SP+
//    does (read both fields, set one), with no DSU and no race checks.  Its
//    cost over an EmptyTool run is the shadow layer's share of a verdict.
#pragma once

#include <chrono>
#include <cstdint>

#include "runtime/types.hpp"
#include "shadow/access_shadow.hpp"
#include "support/common.hpp"
#include "tool/tool.hpp"

namespace perfbench {

/// Callback kinds the ledger separates.  kControl: frame enter/return of
/// non-Reduce frames, sync, steal.  kReduce: on_reduce plus the enter/return
/// of kReduce frames.  kOther: run begin/end and clears.
enum Kind : unsigned { kAccess, kControl, kReduce, kReducerOp, kOther, kKinds };

struct Ledger {
  std::uint64_t events[kKinds] = {};
  std::uint64_t nanos[kKinds] = {};

  std::uint64_t total_nanos() const {
    std::uint64_t n = 0;
    for (const auto t : nanos) n += t;
    return n;
  }
};

class TimedTool final : public rader::Tool {
 public:
  explicit TimedTool(rader::Tool* inner) : inner_(inner) {}

  const Ledger& ledger() const { return ledger_; }

  void on_run_begin() override {
    timed(kOther, [this] { inner_->on_run_begin(); });
  }
  void on_run_end() override {
    timed(kOther, [this] { inner_->on_run_end(); });
  }
  void on_frame_enter(rader::FrameId f, rader::FrameId p, rader::FrameKind k,
                      rader::ViewId v) override {
    timed(kind_of(k), [&] { inner_->on_frame_enter(f, p, k, v); });
  }
  void on_frame_return(rader::FrameId f, rader::FrameId p,
                       rader::FrameKind k) override {
    timed(kind_of(k), [&] { inner_->on_frame_return(f, p, k); });
  }
  void on_sync(rader::FrameId f) override {
    timed(kControl, [&] { inner_->on_sync(f); });
  }
  void on_steal(rader::FrameId f, std::uint32_t c, rader::ViewId v) override {
    timed(kControl, [&] { inner_->on_steal(f, c, v); });
  }
  void on_reduce(rader::FrameId f, rader::ViewId l, rader::ViewId r) override {
    timed(kReduce, [&] { inner_->on_reduce(f, l, r); });
  }
  void on_access(rader::AccessKind k, std::uintptr_t a, std::size_t s,
                 bool va, rader::ViewId v, rader::SrcTag tag) override {
    timed(kAccess, [&] { inner_->on_access(k, a, s, va, v, tag); });
  }
  void on_reducer_op(rader::ReducerOp op, rader::ReducerId h,
                     rader::SrcTag tag) override {
    timed(kReducerOp, [&] { inner_->on_reducer_op(op, h, tag); });
  }
  void on_clear(std::uintptr_t a, std::size_t s) override {
    timed(kOther, [&] { inner_->on_clear(a, s); });
  }

 private:
  static Kind kind_of(rader::FrameKind k) {
    return k == rader::FrameKind::kReduce ? kReduce : kControl;
  }

  template <typename F>
  void timed(Kind kind, F&& forward) {
    const auto t0 = std::chrono::steady_clock::now();
    forward();
    const auto t1 = std::chrono::steady_clock::now();
    ledger_.nanos[kind] += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    ++ledger_.events[kind];
  }

  rader::Tool* inner_;
  Ledger ledger_;
};

class ShadowOnlyTool final : public rader::Tool {
 public:
  using Shadow = rader::shadow::AccessShadow;

  std::uint64_t granules() const { return granules_; }

  void on_frame_enter(rader::FrameId, rader::FrameId, rader::FrameKind,
                      rader::ViewId) override {
    // SP+ stores one id per frame; cycle through the storable range.
    id_ = id_ == Shadow::kMaxPayload ? 0 : id_ + 1;
  }

  void on_access(rader::AccessKind kind, std::uintptr_t addr,
                 std::size_t size, bool, rader::ViewId,
                 rader::SrcTag) override {
    if (size == 0) return;
    const std::uintptr_t last = rader::access_last_byte(addr, size);
    for (std::uintptr_t g = addr;; ++g) {
      // Folded into a member so the lookups cannot be optimized away.
      sink_ ^= shadow_.writer(g) ^ shadow_.reader(g);
      if (kind == rader::AccessKind::kRead) {
        shadow_.set_reader(g, id_);
      } else {
        shadow_.set_writer(g, id_);
      }
      ++granules_;
      if (g == last) break;
    }
  }

  void on_clear(std::uintptr_t addr, std::size_t size) override {
    if (size == 0) return;
    const std::uintptr_t last = rader::access_last_byte(addr, size);
    for (std::uintptr_t g = addr;; ++g) {
      shadow_.clear_granule(g);
      if (g == last) break;
    }
  }

 private:
  Shadow shadow_;
  Shadow::Payload id_ = 0;
  std::uint32_t sink_ = 0;
  std::uint64_t granules_ = 0;
};

}  // namespace perfbench
