// The observability context: every sink a thread reports to — the run-metrics
// registry (support/metrics.hpp), the phase profiler (support/profile.hpp),
// the trace session and this thread's buffer in it (support/trace.hpp), and
// the worker id stamped on trace events — held in ONE constinit thread-local
// and installed and restored by ONE RAII type, `Scope`.
//
// Every hook reads one field: metrics::bump / gauge_add / record the
// registry, trace::emit the buffer, prof::Phase the profiler.  With nothing
// installed each is a plain TLS load and a not-taken branch — constinit
// means no TLS wrapper call — the dormant cost bench/fig7_overhead budgets.
//
// Threads that work on behalf of another (sweep workers, parallel-engine
// helpers, isolated-sweep children) take their sinks from a `Fanout` of the
// parent's context and are folded back into it after the join.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace rader {

namespace metrics {
class Registry;
}
namespace prof {
class Profiler;
}
namespace trace {
class Session;
class Buffer;
}  // namespace trace

namespace obs {

/// One thread's sinks.  A null sink is off; the worker id stamps trace
/// events (the serial engine sets it per simulated steal).
struct Context {
  metrics::Registry* registry = nullptr;
  prof::Profiler* profiler = nullptr;
  trace::Session* session = nullptr;
  trace::Buffer* buffer = nullptr;  // this thread's buffer in `session`
  std::uint32_t worker = 0;
};

namespace detail {
inline constinit thread_local Context tl_ctx{};
}  // namespace detail

/// The calling thread's sinks.
inline const Context& current() { return detail::tl_ctx; }

/// RAII: install sinks for the calling thread; the destructor restores every
/// field of the previous context, so scopes must nest.  `metrics::Scope`
/// and `TraceScope` are its spellings for installing a registry or a trace
/// session.
class Scope {
 public:
  explicit Scope(const Context& ctx) : prev_(detail::tl_ctx) {
    detail::tl_ctx = ctx;
  }
  /// Replace the registry only (nullptr silences metrics).
  explicit Scope(metrics::Registry* registry) : prev_(detail::tl_ctx) {
    detail::tl_ctx.registry = registry;
  }
  /// Replace the profiler only.
  explicit Scope(prof::Profiler* profiler) : prev_(detail::tl_ctx) {
    detail::tl_ctx.profiler = profiler;
  }
  /// Trace into `session` through a new buffer named `buffer_name` (the
  /// session owns it and outlives the scope); nullptr turns tracing off.
  explicit Scope(trace::Session* session, std::string buffer_name = "main");
  ~Scope() { detail::tl_ctx = prev_; }

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Context prev_;
};

/// Fan-out-and-fold: the sinks of workers numbered `first` ..
/// `first + count - 1` acting for the thread whose context is `parent`.
/// Each worker gets a private Registry, a Profiler only when the parent has
/// one, and — when the parent traces — a buffer named `<prefix><number>` in
/// the parent's session.  After the join, fold() returns everything to the
/// parent.
class Fanout {
 public:
  Fanout(const Context& parent, unsigned count, const char* buffer_prefix,
         unsigned first = 0);
  ~Fanout();

  Fanout(const Fanout&) = delete;
  Fanout& operator=(const Fanout&) = delete;

  /// The context worker `w` installs.
  Context context(unsigned w);

  /// Once every worker has quiesced: absorb the profilers into the parent's
  /// (under its open phase) and the registries into the parent's registry.
  void fold();

 private:
  Context parent_;
  unsigned first_;
  std::vector<metrics::Registry> registries_;
  std::vector<prof::Profiler> profilers_;  // empty when the parent has none
  std::vector<trace::Buffer*> buffers_;    // empty when it does not trace
};

}  // namespace obs
}  // namespace rader
