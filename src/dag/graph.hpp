// Performance-DAG representation and reachability.
//
// A Cilk computation is modeled as a DAG whose vertices are strands and
// whose edges are parallel control dependencies (Section 3).  A computation
// that uses reducers is modeled as a *performance DAG* (Section 5): the
// ordinary DAG augmented with reduce strands, reduce-tree dependencies, and
// modified sync in-edges.
//
// The Recorder (dag/recorder.hpp) builds a PerfDag from the instrumentation
// event stream; Reachability computes the full transitive closure with
// bitsets, giving the brute-force series/parallel and peer-set relations the
// detectors are validated against.  Strands are created in serial execution
// order, so strand IDs are already a topological order.
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/types.hpp"
#include "support/common.hpp"

namespace rader::dag {

struct Strand {
  StrandId id = kInvalidStrand;
  FrameId frame = kInvalidFrame;
  ViewId vid = kInvalidView;
  bool in_reduce = false;  // strand of a Reduce invocation (view-aware)
};

struct Access {
  StrandId strand = kInvalidStrand;
  AccessKind kind = AccessKind::kRead;
  std::uintptr_t addr = 0;
  std::uint32_t size = 0;
  bool view_aware = false;
  ViewId vid = kInvalidView;
  const char* label = "";
};

struct ReducerRead {
  StrandId strand = kInvalidStrand;
  ReducerOp op = ReducerOp::kGetValue;
  ReducerId reducer = kInvalidReducer;
  const char* label = "";
};

/// Structural event log, sufficient to rebuild the canonical SP parse tree
/// of a no-steal execution (dag/parse_tree.hpp).
enum class StructOp : std::uint8_t {
  kEnterSpawned,
  kEnterCalled,
  kEnterReduce,
  kEnterRoot,
  kReturn,
  kSync,
  kSteal,
  kReduceMerge,
  kStrand,  // a new strand became current (operand = strand id)
};

struct StructEvent {
  StructOp op;
  StrandId strand = kInvalidStrand;
};

/// A shadow-clear (free) event, positioned in the serial access order: it
/// took effect after `before_access_index` accesses had been recorded.
/// Accesses to the same byte in different "generations" (separated by a
/// clear) target logically different objects and never race.
struct ClearEvent {
  std::size_t before_access_index = 0;
  std::uintptr_t addr = 0;
  std::uint32_t size = 0;
};

struct PerfDag {
  std::vector<Strand> strands;
  std::vector<std::pair<StrandId, StrandId>> edges;
  std::vector<Access> accesses;
  std::vector<ReducerRead> reducer_reads;
  std::vector<ClearEvent> clears;
  std::vector<StructEvent> struct_log;
  std::uint64_t steal_count = 0;
  std::uint64_t reduce_count = 0;

  std::size_t size() const { return strands.size(); }
};

/// Fixed-width bitset over strand IDs.
class StrandSet {
 public:
  StrandSet() = default;
  explicit StrandSet(std::size_t n) : n_(n), words_((n + 63) / 64, 0) {}

  void set(std::size_t i) { words_[i >> 6] |= (std::uint64_t{1} << (i & 63)); }
  bool test(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1;
  }
  StrandSet& operator|=(const StrandSet& o) {
    for (std::size_t w = 0; w < words_.size(); ++w) words_[w] |= o.words_[w];
    return *this;
  }
  bool operator==(const StrandSet& o) const { return words_ == o.words_; }

  std::size_t size() const { return n_; }
  const std::vector<std::uint64_t>& words() const { return words_; }

 private:
  std::size_t n_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Full transitive closure of a PerfDag: O(V·E/64) time, O(V²/8) space.
class Reachability {
 public:
  explicit Reachability(const PerfDag& dag);

  /// u strictly precedes v (u ≺ v): a path exists from u to v.
  bool precedes(StrandId u, StrandId v) const {
    return u != v && desc_[u].test(v);
  }

  /// u ‖ v: neither precedes the other.
  bool parallel(StrandId u, StrandId v) const {
    return u != v && !desc_[u].test(v) && !desc_[v].test(u);
  }

  /// peers(u) == peers(v): equal sets of logically parallel strands.
  /// Equivalent to equal (ancestors ∪ descendants ∪ self) sets.
  bool same_peers(StrandId u, StrandId v) const;

  /// Number of strands logically parallel with u.
  std::size_t peer_count(StrandId u) const;

 private:
  std::size_t n_;
  std::vector<StrandSet> desc_;  // desc_[u]: strands reachable from u (incl. u)
  std::vector<StrandSet> anc_;   // anc_[u]: strands reaching u (incl. u)
};

}  // namespace rader::dag
