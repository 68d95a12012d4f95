// ViewEpochs against a reference model that keeps one map per epoch.
//
// The engine's view storage is transposed (per-reducer view stacks plus
// per-epoch member lists and a shared drain stack), so the model here is
// the plain definition it replaces: a stack of epochs, each a map from
// reducer ID to view.  Random operation sequences drive both, including
// merges whose drain is interrupted by nested pushes, inserts and merges —
// what a user Reduce that spawns, steals or updates does to the engine.
#include "runtime/view_epochs.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "support/rng.hpp"

namespace rader {
namespace {

struct ModelEpoch {
  ViewId vid;
  std::map<ReducerId, void*> views;
};

class ViewEpochsModelCheck {
 public:
  explicit ViewEpochsModelCheck(std::uint64_t seed) { rng_.reseed(seed); }

  void run(int steps) {
    push();  // the base epoch
    for (int i = 0; i < steps; ++i) {
      step(/*nest=*/2);
      check_all();
    }
    while (model_.size() > 1) merge(/*nest=*/0);
    check_all();
  }

 private:
  static constexpr ReducerId kReducers = 12;

  void* fresh_view() {
    return reinterpret_cast<void*>(static_cast<std::uintptr_t>(++views_) * 16);
  }

  void push() {
    const ViewId vid = next_vid_++;
    ve_.push(vid);
    model_.push_back(ModelEpoch{vid, {}});
  }

  bool held_anywhere(ReducerId h) const {
    for (const ModelEpoch& e : model_) {
      if (e.views.count(h) != 0) return true;
    }
    return false;
  }

  void insert_top() {
    const auto h = static_cast<ReducerId>(rng_.below(kReducers));
    if (model_.back().views.count(h) != 0) return;  // precondition
    void* v = fresh_view();
    ve_.insert_top(h, v);
    model_.back().views[h] = v;
  }

  void insert_base() {
    const auto h = static_cast<ReducerId>(rng_.below(kReducers));
    if (held_anywhere(h)) return;  // only a reducer's first view goes there
    void* v = fresh_view();
    ve_.insert_base(h, v);
    model_.front().views[h] = v;
  }

  void extract() {
    const auto h = static_cast<ReducerId>(rng_.below(kReducers));
    std::vector<void*> want;
    for (ModelEpoch& e : model_) {
      auto it = e.views.find(h);
      if (it == e.views.end()) continue;
      want.push_back(it->second);
      e.views.erase(it);
    }
    EXPECT_EQ(ve_.extract_all(h), want) << "extract_all(h" << h << ")";
  }

  /// Nested activity inside a drain: some epochs pushed and filled, then
  /// merged away again, as a Reduce frame's implicit sync does.
  void nested(int nest) {
    const std::size_t depth = model_.size();
    const int pushes = static_cast<int>(rng_.below(3));
    for (int i = 0; i < pushes; ++i) {
      push();
      const int inserts = static_cast<int>(rng_.below(4));
      for (int j = 0; j < inserts; ++j) insert_top();
    }
    if (rng_.below(3) == 0) insert_top();
    check_all();
    while (model_.size() > depth) merge(nest - 1);
  }

  /// top_merge's protocol: pop onto the drain, then reduce each drained
  /// view into the new top's view or transplant it there.
  void merge(int nest) {
    ASSERT_GE(model_.size(), 2u);
    ModelEpoch dead = model_.back();
    model_.pop_back();
    const ViewEpochs::Drain drain = ve_.pop();
    EXPECT_EQ(drain.vid, dead.vid);
    // The drain holds the dead epoch's views in registration order.
    ASSERT_EQ(drain.last - drain.first, dead.views.size());
    std::size_t i = drain.first;
    for (const auto& [h, v] : dead.views) {
      EXPECT_EQ(ve_.drained(i).h, h);
      EXPECT_EQ(ve_.drained(i).view, v);
      ++i;
    }
    for (i = drain.first; i < drain.last; ++i) {
      if (nest > 0 && rng_.below(2) == 0) nested(nest);
      const ViewEpochs::Drained d = ve_.drained(i);
      auto& top = model_.back().views;
      auto it = top.find(d.h);
      void* left = ve_.lookup_top(d.h);
      EXPECT_EQ(left, it == top.end() ? nullptr : it->second);
      if (left == nullptr) {
        ve_.insert_top(d.h, d.view);  // transplant
        top[d.h] = d.view;
      }
    }
    ve_.end_drain(drain);
  }

  void step(int nest) {
    switch (rng_.below(8)) {
      case 0:
      case 1:
        push();
        break;
      case 2:
      case 3:
        insert_top();
        break;
      case 4:
        insert_base();
        break;
      case 5:
        if (model_.size() > 1) merge(nest);
        break;
      case 6:
        if (model_.size() > 1 && rng_.below(2) == 0) merge(nest);
        break;
      default:
        extract();
        break;
    }
  }

  void check_all() {
    ASSERT_EQ(ve_.size(), model_.size());
    EXPECT_EQ(ve_.top_vid(), model_.back().vid);
    for (ReducerId h = 0; h < kReducers + 2; ++h) {
      const auto& top = model_.back().views;
      auto it = top.find(h);
      EXPECT_EQ(ve_.lookup_top(h), it == top.end() ? nullptr : it->second)
          << "lookup_top(h" << h << ")";
    }
    for (std::size_t d = 0; d < model_.size(); ++d) {
      EXPECT_EQ(ve_.vid_at(d), model_[d].vid);
      std::vector<ReducerId> want;
      for (const auto& [h, v] : model_[d].views) want.push_back(h);
      EXPECT_EQ(ve_.reducers_at(d), want) << "epoch " << d;
    }
  }

  Rng rng_;
  ViewEpochs ve_;
  std::vector<ModelEpoch> model_;
  ViewId next_vid_ = 0;
  std::uintptr_t views_ = 0;
};

TEST(ViewEpochs, MatchesPerEpochMapModelUnderRandomOps) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    ViewEpochsModelCheck check(seed);
    check.run(300);
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "first failing seed " << seed;
      return;
    }
  }
}

TEST(ViewEpochs, ClearKeepsTheStructureReusable) {
  ViewEpochs ve;
  int a = 0, b = 0;
  ve.push(0);
  ve.insert_top(3, &a);
  ve.push(1);
  ve.insert_top(3, &b);
  ve.insert_base(5, &b);
  ve.clear();
  EXPECT_TRUE(ve.empty());
  ve.push(7);
  EXPECT_EQ(ve.lookup_top(3), nullptr);
  EXPECT_EQ(ve.lookup_top(5), nullptr);
  EXPECT_TRUE(ve.reducers_at(0).empty());
  ve.insert_top(3, &a);
  EXPECT_EQ(ve.lookup_top(3), &a);
  EXPECT_EQ(ve.extract_all(3), std::vector<void*>{&a});
}

}  // namespace
}  // namespace rader
