// View-epoch stack: the serial engine's model of the runtime's hypermaps.
//
// During parallel execution the Cilk runtime gives each worker a hypermap
// from reducers to views; a fresh (lazily populated) hypermap comes into
// existence at every successful steal, and hypermaps of adjacent
// subcomputations are folded together by Reduce operations.  Under serial
// execution with *simulated* steals this state collapses to a stack:
//
//   * run() pushes the base epoch (view ID 0);
//   * every simulated steal pushes a new epoch with a fresh view ID;
//   * every simulated reduce pops the newest epoch and folds its views into
//     the epoch below (the dominating view survives — view invariants, §5);
//   * because every frame implicitly syncs before returning, the epochs
//     pushed while a frame runs are exactly the ones popped before it
//     returns, so the stack discipline matches the frame stack.
//
// Lookups consult the TOP epoch only — exactly the lazy view semantics: an
// update after a steal creates a new identity view even when an older view
// of the same reducer exists in an outer epoch.
//
// Storage is transposed so that the hot path neither hashes nor allocates
// (OpenCilk keeps one small per-worker table keyed by the reducer for the
// same reason):
//
//   * each reducer owns a stack of (epoch depth, view) records, bottom to
//     top.  Depths strictly increase along a stack, so the reducer's view
//     in the top epoch, if any, is its last record: lookup_top is one
//     compare;
//   * each epoch keeps the list of reducers holding a view in it (what a
//     reduce must visit).  Popped epochs keep their list's storage for the
//     next push;
//   * pop() moves the dead epoch's views onto a drain stack, sorted by
//     reducer ID.  Reducer IDs are dense in registration order, so that is
//     the registration order the reduce must follow.  A drain grows the
//     stack above any drain still in progress (a user Reduce may spawn,
//     steal and sync while its caller drains), and end_drain() truncates
//     back to the drain's start, so the storage is reused and, once warm,
//     nothing allocates.
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/types.hpp"
#include "support/common.hpp"

namespace rader {

class ViewEpochs {
 public:
  /// One view of a dead epoch, as pop() leaves it on the drain stack.
  struct Drained {
    ReducerId h;
    void* view;
  };
  /// A dead epoch's views: drained(i) for i in [first, last).
  struct Drain {
    ViewId vid;
    std::size_t first;
    std::size_t last;
  };

  std::size_t size() const { return depth_; }
  bool empty() const { return depth_ == 0; }

  void push(ViewId vid) {
    if (depth_ == epochs_.size()) epochs_.emplace_back();
    epochs_[depth_].vid = vid;
    RADER_DCHECK(epochs_[depth_].members.empty());
    ++depth_;
  }

  /// Pop the newest epoch, appending its views to the drain stack sorted
  /// by reducer ID.  The caller reads them by index (nested drains may
  /// reallocate the stack) and calls end_drain() when done.
  Drain pop();

  Drained drained(std::size_t i) const {
    RADER_DCHECK(i < drain_.size());
    return drain_[i];
  }

  /// Truncate the drain stack back to `d`'s start; drains nested inside
  /// `d` must have ended already.
  void end_drain(const Drain& d) {
    RADER_DCHECK(drain_.size() == d.last);
    drain_.resize(d.first);
  }

  ViewId top_vid() const {
    RADER_DCHECK(depth_ > 0);
    return epochs_[depth_ - 1].vid;
  }

  /// View of reducer `h` in the newest epoch, or nullptr.
  void* lookup_top(ReducerId h) const {
    RADER_DCHECK(depth_ > 0);
    if (h >= views_.size()) return nullptr;
    const std::vector<Record>& s = views_[h];
    return !s.empty() && s.back().depth == depth_ - 1 ? s.back().view
                                                      : nullptr;
  }

  /// Record `view` as reducer `h`'s view in the newest epoch, which must
  /// not hold one yet.
  void insert_top(ReducerId h, void* view) {
    RADER_DCHECK(depth_ > 0 && lookup_top(h) == nullptr);
    records(h).push_back(Record{depth_ - 1, view});
    epochs_[depth_ - 1].members.push_back(h);
  }

  /// Record `view` in the base (outermost) epoch — used when a reducer that
  /// was created before the run is first touched, so that its leftmost view
  /// sits below every epoch a simulated steal may have pushed.  `h` must
  /// hold no view yet.
  void insert_base(ReducerId h, void* view) {
    RADER_DCHECK(depth_ > 0);
    std::vector<Record>& s = records(h);
    RADER_DCHECK(s.empty());
    s.push_back(Record{0, view});
    epochs_[0].members.push_back(h);
  }

  /// Remove every record of reducer `h`, returning its views bottom-to-top
  /// (oldest first) so the caller can fold them.  Used at reducer
  /// destruction.
  std::vector<void*> extract_all(ReducerId h);

  /// View ID of the epoch at `depth` (0 = base).
  ViewId vid_at(std::size_t depth) const {
    RADER_DCHECK(depth < depth_);
    return epochs_[depth].vid;
  }

  /// Sorted IDs of the reducers holding a view in the epoch at `depth` (for
  /// checkpoints and their verification).
  std::vector<ReducerId> reducers_at(std::size_t depth) const;

  /// Drop every epoch, record and drain, keeping the storage.
  void clear();

 private:
  struct Record {
    std::size_t depth;
    void* view;
  };
  struct Epoch {
    ViewId vid = kInvalidView;
    std::vector<ReducerId> members;  // reducers with a view in this epoch
  };

  std::vector<Record>& records(ReducerId h) {
    if (h >= views_.size()) views_.resize(std::size_t{h} + 1);
    return views_[h];
  }

  std::vector<Epoch> epochs_;  // [0, depth_) live; the rest keep storage
  std::size_t depth_ = 0;
  std::vector<std::vector<Record>> views_;  // per reducer ID, bottom to top
  std::vector<Drained> drain_;  // nested drains, innermost on top
};

}  // namespace rader
