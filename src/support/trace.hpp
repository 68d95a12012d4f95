// Structured execution tracing: a per-thread ring-buffered event trace of
// the simulated Cilk execution (spawn/call frames, syncs, steals, reduce
// begin/end, view create/destroy, reducer operations, and the first
// conflicting access per granule as flagged by the detectors).
//
// Design mirrors support/metrics: a `Session` owns one fixed capacity
// `Buffer` per participating thread; the buffer field of the thread's
// observability context (support/context.hpp) is the only hot-path state,
// so every `emit()` is a TL load plus a predictable branch when tracing is
// off (off by default; the dormant cost is budgeted by
// bench/fig7_overhead).  `TraceScope` attaches a buffer of a session for
// the calling thread; worker threads started inside it get their own
// buffers of the same session from the obs::Fanout that starts them.
//
// Events carry the frame/strand identifiers the engines already maintain
// (FrameId, ViewId, ReducerId) plus a *worker* id: the serial engine stamps
// the simulated worker that would own the strand under the steal spec
// (worker 0 runs the root; each simulated steal moves the continuation to a
// fresh worker), the parallel engine stamps the real worker index.  The
// exporters in core/trace_export.hpp turn this into one Chrome-trace track
// per worker.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "runtime/types.hpp"
#include "support/metrics.hpp"

namespace rader::trace {

enum class EventKind : std::uint8_t {
  kRunBegin,     // engine run started (one per SerialEngine::run)
  kRunEnd,       // engine run finished
  kFrameEnter,   // a=parent frame, b=view id at entry, aux=FrameKind
  kFrameReturn,  // a=parent frame, aux=FrameKind
  kSync,         // cilk_sync retired (all reduces delivered)
  kSteal,        // a=continuation index, b=new view id (thief = event worker)
  kReduceBegin,  // a=left (surviving) view id, b=right (dying) view id
  kReduceEnd,    // a=left view id, b=right view id
  kViewCreate,   // a=view id, b=reducer, aux: 0=leftmost, 1=identity
  kViewDestroy,  // a=view id (0 if unknown), b=reducer
  kReducerOp,    // a=reducer, aux=ReducerOp, label=source tag
  kConflict,     // a=address/reducer, b=prior frame, aux=conflict flag bits
};
inline constexpr unsigned kEventKindCount = 12;
const char* event_kind_name(EventKind k);

/// kConflict aux bits.
enum : std::uint8_t {
  kConflictWrite = 1,       // the current (reporting) access is a write
  kConflictViewAware = 2,   // the current access is view-aware
  kConflictPriorWrite = 4,  // the prior access was a write
  kConflictViewRead = 8,    // Peer-Set view-read race (a = reducer id)
};

struct Event {
  std::uint64_t nanos = 0;  // metrics::now_nanos() at emission
  std::uint64_t a = 0;      // kind-specific operand (see EventKind)
  std::uint64_t b = 0;      // second operand
  const char* label = "";   // static string (SrcTag label), never null
  FrameId frame = kInvalidFrame;
  std::uint32_t worker = 0;  // simulated or real worker id
  EventKind kind = EventKind::kRunBegin;
  std::uint8_t aux = 0;  // FrameKind / ReducerOp / conflict flag bits
};

/// Fixed-capacity ring of events for one thread.  When full, the *oldest*
/// event is dropped (the tail of a long run matters more than the head for
/// explaining a race found late); `dropped()` counts the casualties.  Also
/// hosts the first-conflict-per-granule filter: `note_conflict()` returns
/// true only the first time a granule key is seen by this buffer.
class Buffer {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 16;

  explicit Buffer(std::string name = "main",
                  std::size_t capacity = kDefaultCapacity);

  void record(const Event& e);

  /// First sighting of `granule_key` in this buffer?  (Not reset between
  /// runs: a sweep worker reports each conflicting granule once across its
  /// whole spec batch, which bounds both memory and trace noise.)
  bool note_conflict(std::uint64_t granule_key);

  /// Events oldest → newest.
  std::vector<Event> ordered() const;

  /// Copy the newest `max` events into `out` (oldest → newest), returning
  /// the count written.  Allocation-free and bounds-clamped so the crash
  /// handler can call it on a buffer whose owner thread died mid-record —
  /// a torn tail is acceptable in a post-mortem, an unbounded read is not.
  std::size_t copy_tail(Event* out, std::size_t max) const;

  const std::string& name() const { return name_; }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t recorded() const { return recorded_; }
  std::uint64_t dropped() const {
    return recorded_ > size_ ? recorded_ - size_ : 0;
  }
  std::size_t size() const { return size_; }

 private:
  std::string name_;
  std::size_t capacity_;
  std::vector<Event> ring_;
  std::size_t head_ = 0;  // index of the oldest event
  std::size_t size_ = 0;
  std::uint64_t recorded_ = 0;
  std::unordered_set<std::uint64_t> conflict_granules_;
};

/// Owns the per-thread buffers of one tracing session.  Buffer registration
/// is mutex-protected (threads join at unpredictable times); event recording
/// itself is lock-free because each thread writes only its own buffer.
class Session {
 public:
  explicit Session(std::size_t buffer_capacity = Buffer::kDefaultCapacity);

  /// Create and own a new buffer; the returned pointer stays valid for the
  /// session's lifetime.  Thread-safe.
  Buffer* make_buffer(std::string name);

  /// All buffers registered so far, in registration order.
  std::vector<const Buffer*> buffers() const;

  /// Lock-free best-effort view for the crash handler: fills `out` with up
  /// to `max` buffer pointers (the first kCrashSlots registrations,
  /// published through atomics as a side channel of make_buffer).  Safe to
  /// call from a signal handler — never takes `mu_`.
  static constexpr unsigned kCrashSlots = 64;
  unsigned crash_buffers(const Buffer** out, unsigned max) const;

  std::size_t buffer_capacity() const { return buffer_capacity_; }
  std::uint64_t total_recorded() const;
  std::uint64_t total_dropped() const;

 private:
  mutable std::mutex mu_;
  std::size_t buffer_capacity_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::atomic<Buffer*> crash_slots_[kCrashSlots] = {};
  std::atomic<unsigned> crash_count_{0};
};

/// Is the calling thread tracing?
inline bool enabled() { return obs::detail::tl_ctx.buffer != nullptr; }

/// Set the worker id stamped on subsequent events from this thread.  The
/// serial engine calls this at run start (worker 0) and at each simulated
/// steal; parallel-engine helpers get theirs from their obs::Fanout.
inline void set_worker(std::uint32_t w) { obs::detail::tl_ctx.worker = w; }

/// Record an event on the calling thread's buffer.  A TL load and branch
/// when tracing is off.
inline void emit(EventKind kind, FrameId frame, std::uint64_t a = 0,
                 std::uint64_t b = 0, std::uint8_t aux = 0,
                 const char* label = "") {
  const obs::Context& ctx = obs::detail::tl_ctx;
  Buffer* buf = ctx.buffer;
  if (buf == nullptr) return;
  Event e;
  e.nanos = metrics::now_nanos();
  e.a = a;
  e.b = b;
  e.label = label;
  e.frame = frame;
  e.worker = ctx.worker;
  e.kind = kind;
  e.aux = aux;
  buf->record(e);
}

/// Record a kConflict event, deduplicated to the first conflict per granule
/// key (detectors pass their own granule index; Peer-Set passes the reducer
/// id with kConflictViewRead set).
inline void emit_conflict(FrameId frame, std::uint64_t granule_key,
                          std::uint64_t addr, std::uint64_t prior,
                          std::uint8_t flags, const char* label) {
  const obs::Context& ctx = obs::detail::tl_ctx;
  Buffer* buf = ctx.buffer;
  if (buf == nullptr) return;
  if (!buf->note_conflict(granule_key)) return;
  Event e;
  e.nanos = metrics::now_nanos();
  e.a = addr;
  e.b = prior;
  e.label = label;
  e.frame = frame;
  e.worker = ctx.worker;
  e.kind = EventKind::kConflict;
  e.aux = flags;
  buf->record(e);
}

}  // namespace rader::trace

namespace rader {
/// RAII: trace the calling thread into a session (the observability
/// context's Scope, support/context.hpp): `TraceScope(&session, "main")`.
using TraceScope = obs::Scope;
}  // namespace rader
