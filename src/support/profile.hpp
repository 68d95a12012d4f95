// Hierarchical phase profiler: RAII phase scopes that build a per-thread
// tree of named phases (sweep → spec → {resume, replay, detect, merge}),
// with wall-time totals, visit counts, and *self-time* attribution
// (total minus children — where the time actually went, not just which
// subtree it passed through).
//
// Design mirrors support/metrics: a `Profiler` is a plain per-thread sink,
// the profiler field of the thread's observability context
// (support/context.hpp), installed via obs::Scope (RAII, nestable); the
// hot-path `Phase` constructor is a thread-local load and a predictable
// branch when no profiler is installed, so instrumented code pays ~nothing
// unless someone asked for `--profile` (dormant budget enforced by
// bench/fig7_overhead).  A `Phase` given a metrics::Phase slot also feeds
// the installed registry's phase timer from the same clock pair.  Parallel
// consumers (sweep workers) get their own Profiler from an obs::Fanout —
// only when the caller has one — and are folded with `absorb()` after
// joining: trees merge by phase-name path, so five workers'
// "sweep;spec;detect" paths collapse into one aggregated node under the
// caller's open phase.
//
// Output: `table()` renders an indented human-readable summary; and
// `collapsed()` renders the standard collapsed-stack format — one
// `path;to;phase <self-microseconds>` line per node — which flamegraph
// tools (flamegraph.pl, speedscope, inferno) consume directly.  The CLI
// wires this to `rader --profile=FILE`.
//
// Phase names must be string literals (or otherwise outlive the profiler):
// nodes store the pointer and match by strcmp, so the same name from
// different translation units still folds into one node.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "support/metrics.hpp"  // now_nanos, Registry (Phase's inline path)

namespace rader::prof {

/// One phase in the tree.  `total_nanos` is inclusive wall time (it
/// contains the children); `self_nanos()` subtracts them back out.
struct Node {
  const char* name = "";
  std::uint64_t total_nanos = 0;
  std::uint64_t count = 0;
  std::vector<std::unique_ptr<Node>> children;

  /// Find-or-create the child named `name` (strcmp match).
  Node* child(const char* name);

  /// Inclusive time minus the children's inclusive time (clamped at 0 —
  /// a child on another worker can outlive its logical parent scope).
  std::uint64_t self_nanos() const;
};

/// A per-thread phase tree under construction.  The root node is unnamed
/// and untimed; top-level phases hang off it.
class Profiler {
 public:
  Profiler() { cur_ = &root_; }

  const Node& root() const { return root_; }
  Node* current_node() { return cur_; }

  /// Fold `other`'s tree into this profiler *under the current node*, by
  /// name path.  Used at worker join and for outer-scope forwarding.
  void absorb(const Node& other_root);

  /// True when no phase has been recorded.
  bool empty() const { return root_.children.empty(); }

  // Used by Phase (enter returns the node; leave restores the parent).
  Node* enter(const char* name) {
    Node* n = cur_->child(name);
    cur_ = n;
    return n;
  }
  void leave(Node* node, Node* parent, std::uint64_t nanos) {
    node->total_nanos += nanos;
    ++node->count;
    cur_ = parent;
  }

 private:
  Node root_;
  Node* cur_;
};

/// RAII: one timed phase, read from one clock pair into up to two sinks of
/// the calling thread's context: the profiler node `name` nested under the
/// phase currently open (when a profiler is installed and `name` is not
/// null) and, given a `slot`, that metrics::Phase accumulator of the
/// installed registry.  Free (no clock reads, no tree walk) when those sinks
/// are off — the constructor and destructor are defined inline so the
/// dormant path is exactly a thread-local load and a not-taken branch, the
/// cost the fig7_overhead observability-dormant gate budgets.
class Phase {
 public:
  explicit Phase(const char* name) : prof_(obs::detail::tl_ctx.profiler) {
    if (prof_ != nullptr) open(name);
  }
  Phase(const char* name, metrics::Phase slot)
      : prof_(name != nullptr ? obs::detail::tl_ctx.profiler : nullptr),
        reg_(obs::detail::tl_ctx.registry),
        slot_(slot) {
    if (prof_ != nullptr) {
      open(name);
    } else if (reg_ != nullptr) {
      start_nanos_ = metrics::now_nanos();
    }
  }
  ~Phase() {
    if (prof_ == nullptr && reg_ == nullptr) return;
    const std::uint64_t nanos = metrics::now_nanos() - start_nanos_;
    if (prof_ != nullptr) prof_->leave(node_, parent_, nanos);
    if (reg_ != nullptr) reg_->add_phase_nanos(slot_, nanos);
  }

  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

 private:
  void open(const char* name) {
    parent_ = prof_->current_node();
    node_ = prof_->enter(name);
    start_nanos_ = metrics::now_nanos();
  }

  Profiler* prof_;
  metrics::Registry* reg_ = nullptr;
  metrics::Phase slot_ = metrics::Phase::kExecute;
  Node* node_ = nullptr;
  Node* parent_ = nullptr;
  std::uint64_t start_nanos_ = 0;
};

/// Indented human-readable table: phase, count, inclusive ms, self ms,
/// self share of the root's inclusive time.
std::string table(const Node& root);

/// Collapsed-stack (flamegraph) rendering: one line per node,
/// `name;path;leaf <self-microseconds>`, children depth-first.  Every
/// visited node is emitted (including zero-self ones) so stack prefixes
/// are always present for downstream tools.
std::string collapsed(const Node& root);

}  // namespace rader::prof
