// reducer<Monoid>: the reducer hyperobject.
//
// A reducer coordinates parallel updates to a shared variable by giving each
// (simulated or real) stolen subcomputation its own *view*; views are folded
// back together with the monoid's associative reduce in serial order, so an
// ostensibly deterministic program gets the serial result no matter how the
// schedule played out.
//
// Operation taxonomy (matters to the detectors!):
//   * get_value / set_value / construction / destruction are REDUCER-READS —
//     these are what the Peer-Set algorithm checks for view-read races.
//   * update(fn) (and the operator sugar built on it) runs fn on the current
//     view inside a view-aware bracket; the runtime lazily Create-Identities
//     a view if the current epoch has none.  Accesses inside the bracket are
//     view-aware strands for SP+.
//   * Reduce operations are invoked by the engine (never by user code).
//
// Without an installed engine a reducer degrades to a plain value — the
// serial projection.
#pragma once

#include <new>
#include <utility>

#include "reducers/monoid.hpp"
#include "runtime/api.hpp"
#include "runtime/engine.hpp"
#include "runtime/hyperobject.hpp"
#include "runtime/view_arena.hpp"

namespace rader {

template <ReducerMonoid M>
class reducer : public HyperobjectBase {
 public:
  using View = typename M::value_type;

  explicit reducer(SrcTag tag = {"reducer"})
      : leftmost_(M::identity()), tag_(tag) {
    if (Engine* e = Engine::current()) {
      e->register_reducer(this, &leftmost_, tag_);
    }
  }

  /// Construct holding `init` as the leftmost view's value (set_value at
  /// birth, as in the paper's Figure 1 line 3 idiom).
  explicit reducer(View init, SrcTag tag = {"reducer"})
      : leftmost_(std::move(init)), tag_(tag) {
    if (Engine* e = Engine::current()) {
      e->register_reducer(this, &leftmost_, tag_);
    }
  }

  ~reducer() override {
    if (Engine* e = Engine::current()) e->unregister_reducer(this, tag_);
  }

  reducer(const reducer&) = delete;
  reducer& operator=(const reducer&) = delete;

  /// Apply `fn` to the current view inside a view-aware bracket.  This is
  /// the Update operation; `fn` should annotate the view memory it touches
  /// (shadow_read/shadow_write) if races on it are to be detectable.
  template <typename F>
  void update(F&& fn, SrcTag tag = {}) {
    Engine* e = Engine::current();
    if (e == nullptr) {
      fn(leftmost_);
      return;
    }
    const SrcTag t = tag.label[0] != '\0' ? tag : tag_;
    View* v = static_cast<View*>(e->begin_update(this, t));
    struct Guard {
      Engine* eng;
      HyperobjectBase* r;
      ~Guard() { eng->end_update(r); }
    } guard{e, this};
    fn(*v);
  }

  /// The current view, without the view-aware bracket.  Use for read-mostly
  /// inspection inside update contexts; prefer update() for mutation.
  View& view() {
    Engine* e = Engine::current();
    if (e == nullptr) return leftmost_;
    return *static_cast<View*>(e->current_view(this, tag_));
  }

  /// Reducer-read: retrieve the value.  Deterministic only at peer-safe
  /// program points (e.g. after the sync that joins all updaters) — that is
  /// exactly what Peer-Set checks.
  View get_value(SrcTag tag = {"get_value"}) {
    Engine* e = Engine::current();
    if (e == nullptr) return leftmost_;
    e->reducer_read(this, ReducerOp::kGetValue, tag);
    return *static_cast<View*>(e->current_view(this, tag));
  }

  /// Reducer-read: replace the value of the current view.
  void set_value(View v, SrcTag tag = {"set_value"}) {
    Engine* e = Engine::current();
    if (e == nullptr) {
      leftmost_ = std::move(v);
      return;
    }
    e->reducer_read(this, ReducerOp::kSetValue, tag);
    *static_cast<View*>(e->current_view(this, tag)) = std::move(v);
  }

  /// Reducer-read: move the value out of the current view (which is left in
  /// a valid moved-from state).  The only read path for move-only views.
  View take_value(SrcTag tag = {"take_value"}) {
    Engine* e = Engine::current();
    if (e == nullptr) return std::move(leftmost_);
    e->reducer_read(this, ReducerOp::kGetValue, tag);
    return std::move(*static_cast<View*>(e->current_view(this, tag)));
  }

  /// Cilk Plus naming aliases.
  View move_out(SrcTag tag = {"move_out"}) { return get_value(tag); }
  void move_in(View v, SrcTag tag = {"move_in"}) {
    set_value(std::move(v), tag);
  }

  // ---- Operator sugar for scalar-ish monoids.  Each is an Update whose
  // ---- access to the view scalar is annotated, so SP+ sees the strand.
  template <typename U>
  reducer& operator+=(const U& rhs)
    requires requires(View& v, const U& u) { v += u; }
  {
    update([&](View& v) {
      shadow_write(&v, sizeof(View));
      v += rhs;
    });
    return *this;
  }

  template <typename U>
  reducer& operator*=(const U& rhs)
    requires requires(View& v, const U& u) { v *= u; }
  {
    update([&](View& v) {
      shadow_write(&v, sizeof(View));
      v *= rhs;
    });
    return *this;
  }

  /// For min/max-style monoids: fold one candidate value in.
  void include(View candidate) {
    update([&](View& v) {
      shadow_write(&v, sizeof(View));
      M::reduce(v, candidate);
    });
  }

  // ---- HyperobjectBase (engine-facing) ----
  // Identity views live in the deterministic thread-local arena, not on the
  // general heap: with `new`, two executions with identical control flow
  // could see their views at different addresses (allocator free-list
  // state), defeating prefix-sharing sweeps, which verify that re-executed
  // prefixes touch identical bytes (runtime/view_arena.hpp).  hyper_destroy
  // therefore only destructs; the storage is rewound at the next run.
  void* hyper_create_identity() override {
    void* mem = view_arena::allocate(sizeof(View), alignof(View));
    return new (mem) View(M::identity());
  }
  void hyper_reduce(void* left, void* right) override {
    M::reduce(*static_cast<View*>(left), *static_cast<View*>(right));
  }
  void hyper_destroy(void* view) override {
    static_cast<View*>(view)->~View();
  }
  void* hyper_leftmost() override { return &leftmost_; }
  std::size_t hyper_view_size() const override { return sizeof(View); }
  SrcTag hyper_tag() const override { return tag_; }

 private:
  View leftmost_;  // the leftmost view: initial and final value
  SrcTag tag_;
};

}  // namespace rader
