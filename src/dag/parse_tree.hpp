// Canonical SP parse trees (Section 4, Figure 4 of the paper).
//
// The DAG of a Cilk computation without steals is series-parallel and can be
// built by recursive series (S) and parallel (P) compositions; the recursion
// is the binary *SP parse tree*, whose leaves are strands.  The *canonical*
// parse tree lays a function's sync blocks out as a right-leaning chain: the
// left child of each chain node is a strand of F or the parse subtree of a
// child invocation (a P node if the child was spawned, an S node otherwise),
// and a spine of S nodes links the sync blocks.
//
// The tree is built from the Recorder's structural event log (no-steal runs
// only).  It provides the relations the correctness proofs rest on:
//
//   Lemma 2: peers(u) = peers(v)  ⟺  the u–v tree path is all S nodes.
//   [Feng–Leiserson Lemma 4]: u ‖ v  ⟺  LCA(u, v) is a P node.
//
// Both are property-tested against the bitset Reachability ground truth.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dag/graph.hpp"

namespace rader::dag {

class ParseTree {
 public:
  enum class NodeKind : std::uint8_t { kLeaf, kS, kP };

  struct Node {
    NodeKind kind = NodeKind::kLeaf;
    StrandId strand = kInvalidStrand;  // for leaves
    std::int32_t left = -1;            // child indices into nodes()
    std::int32_t right = -1;
    std::int32_t parent = -1;
    std::int32_t depth = 0;
  };

  /// Build the canonical parse tree from a no-steal execution's structural
  /// log.  Aborts if the log contains steal or reduce events (such
  /// computations are not series-parallel — that is the point of SP+).
  static ParseTree build(const PerfDag& dag);

  const std::vector<Node>& nodes() const { return nodes_; }
  std::int32_t root() const { return root_; }

  /// Least common ancestor of two strands' leaves.
  std::int32_t lca(StrandId u, StrandId v) const;

  /// u ‖ v per the parse tree: LCA is a P node.
  bool parallel(StrandId u, StrandId v) const {
    return nodes_[lca(u, v)].kind == NodeKind::kP;
  }

  /// Lemma 2's criterion: the path from u to v consists entirely of S nodes.
  bool all_s_path(StrandId u, StrandId v) const;

  /// Count of P nodes on the root-to-leaf path of strand u (the "depth"
  /// classes of Theorem 6).
  std::uint32_t p_depth(StrandId u) const;

 private:
  std::int32_t make_leaf(StrandId s);
  std::int32_t make_inner(NodeKind kind, std::int32_t l, std::int32_t r);
  void finalize(std::int32_t node, std::int32_t parent, std::int32_t depth);

  std::vector<Node> nodes_;
  std::vector<std::int32_t> leaf_of_;
  std::int32_t root_ = -1;
};

}  // namespace rader::dag
