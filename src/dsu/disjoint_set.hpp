// Disjoint-set (union–find) substrate for the SP-bags family of algorithms.
//
// Both the Peer-Set algorithm (Figure 3 of the paper) and the SP+ algorithm
// (Figure 6) maintain "bags": sets of IDs of completed Cilk-function
// instantiations, stored in a fast disjoint-set data structure
// [CLRS Ch. 21].  A bag carries metadata on its set root:
//
//   * its *kind* — which of the algorithm's bag roles the set currently
//     plays (S/P for SP-bags and SP+; SS/SP/P for Peer-Set), and
//   * its *view ID* — SP+ tags each P bag with the reducer view associated
//     with it ("Each P bag is a disjoint set with an additional vid field").
//
// When one bag is unioned into another, the *destination* bag's metadata is
// preserved ("when a P bag is unioned into another P bag, the bags are
// unioned, and the view ID of the destination P bag is preserved").
//
// DisjointSets provides the raw union–find forest with per-root metadata;
// Bag is the linear-use wrapper the detectors manipulate.  FindBag(id) is
// `ds.find(id)` followed by a metadata lookup at the root.
//
// Complexity: union by rank + path compression, so any sequence of m
// operations on n nodes costs O(m α(m, n)) — the α factor in the paper's
// Theorem 1 and Theorem 5 bounds.
#pragma once

#include <cstdint>
#include <vector>

#include "support/common.hpp"

namespace rader::dsu {

using Node = std::uint32_t;
inline constexpr Node kInvalidNode = static_cast<Node>(-1);

using ViewId = std::uint64_t;
inline constexpr ViewId kNoView = static_cast<ViewId>(-1);

/// Role a bag currently plays in a detection algorithm.
enum class BagKind : std::uint8_t {
  kNone,  // not yet assigned to any bag
  kS,     // SP-bags / SP+ "S" bag: in series with the current strand
  kP,     // "P" bag: logically parallel with the current strand
  kSS,    // Peer-Set: same peer set as the first strand of the function
  kSP,    // Peer-Set: same peer set as the last executed continuation strand
};

/// Union–find forest over dense node handles with per-root bag metadata.
class DisjointSets {
 public:
  struct Meta {
    BagKind kind = BagKind::kNone;
    ViewId vid = kNoView;
  };

  DisjointSets() = default;

  /// Create a fresh singleton set and return its node handle.
  Node make_node();

  /// Find the set root of `n`, compressing the path.
  Node find(Node n);

  /// Union the sets rooted at `ra` and `rb` (both must be roots) and return
  /// the new root.  Metadata is NOT adjusted — Bag handles that.
  Node link(Node ra, Node rb);

  /// Metadata of a set; `root` must be a root (use find() first).
  Meta& meta(Node root) {
    RADER_DCHECK(parent_[root] == root);
    return meta_[root];
  }
  const Meta& meta(Node root) const {
    RADER_DCHECK(parent_[root] == root);
    return meta_[root];
  }

  /// Convenience: metadata of the set containing `n`.
  const Meta& meta_of(Node n) { return meta_[find(n)]; }

  std::size_t node_count() const { return parent_.size(); }

  /// Drop all nodes (invalidates every handle).
  void clear();

 private:
  std::vector<Node> parent_;
  std::vector<std::uint8_t> rank_;
  std::vector<Meta> meta_;
};

/// A bag: a possibly-empty disjoint set with sticky (kind, vid) metadata.
///
/// Bags are used linearly: `merge_from` drains the source bag.  An empty bag
/// remembers its metadata so that the first node added to it (or the first
/// merge into it) stamps the correct metadata onto the set root.
class Bag {
 public:
  Bag() = default;

  /// An empty bag with the given role and view ID (MakeBag(∅) in the paper).
  Bag(DisjointSets* ds, BagKind kind, ViewId vid = kNoView)
      : ds_(ds), meta_{kind, vid} {}

  /// A bag containing exactly `n` (MakeBag(G) in the paper).  `n` must be a
  /// singleton (freshly created) node.
  Bag(DisjointSets* ds, Node n, BagKind kind, ViewId vid = kNoView)
      : ds_(ds), root_(n), meta_{kind, vid} {
    stamp();
  }

  bool valid() const { return ds_ != nullptr; }
  bool empty() const { return root_ == kInvalidNode; }

  BagKind kind() const { return meta_.kind; }
  ViewId vid() const { return meta_.vid; }

  /// Retag the bag's view (an absorbed bag keeps its elements, but the
  /// *destination* decides the metadata).
  void set_vid(ViewId vid) {
    meta_.vid = vid;
    stamp();
  }

  /// Add a freshly created singleton node to this bag.
  void add(Node n);

  /// Union `other`'s set into this bag, preserving THIS bag's metadata.
  /// `other` is left empty (its metadata is untouched).
  void merge_from(Bag& other);

  /// Point the bag at a different forest.  Node handles, roots, and
  /// metadata are position-dependent only on the forest's vectors, so a
  /// forked detector (SpPlusDetector::fork) copies its DisjointSets and
  /// rebinds every bag it holds to the copy; the bag's root and sticky
  /// metadata remain valid verbatim.
  void rebind(DisjointSets* ds) { ds_ = ds; }

  /// Root handle of the underlying set (kInvalidNode when empty).
  Node root() const { return root_; }

 private:
  // Re-stamp the sticky metadata onto the current set root.
  void stamp() {
    if (root_ != kInvalidNode) ds_->meta(ds_->find(root_)) = meta_;
  }

  DisjointSets* ds_ = nullptr;
  Node root_ = kInvalidNode;
  DisjointSets::Meta meta_{};
};

}  // namespace rader::dsu
