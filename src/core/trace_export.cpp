#include "core/trace_export.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "runtime/types.hpp"
#include "support/json.hpp"

namespace rader {

namespace {

using trace::Event;
using trace::EventKind;

const char* frame_kind_name(std::uint8_t aux) {
  switch (static_cast<FrameKind>(aux)) {
    case FrameKind::kRoot: return "root";
    case FrameKind::kSpawned: return "spawned";
    case FrameKind::kCalled: return "called";
    case FrameKind::kReduce: return "reduce";
  }
  return "frame";
}

const char* reducer_op_name(std::uint8_t aux) {
  switch (static_cast<ReducerOp>(aux)) {
    case ReducerOp::kCreate: return "Create";
    case ReducerOp::kSetValue: return "SetValue";
    case ReducerOp::kGetValue: return "GetValue";
    case ReducerOp::kDestroy: return "Destroy";
    case ReducerOp::kUpdate: return "Update";
    case ReducerOp::kCreateIdentity: return "CreateIdentity";
    case ReducerOp::kReduce: return "Reduce";
  }
  return "op";
}

/// One emitted trace-event JSON object, sortable by timestamp.  `seq`
/// breaks ties with insertion order so equal-timestamp events keep their
/// buffer order (which is causal order within a thread).
struct Entry {
  double ts_us = 0;
  std::uint64_t seq = 0;
  std::string json;
};

std::string format_ts(double ts_us) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", ts_us);
  return buf;
}

class ChromeWriter {
 public:
  void add_meta(std::string json) { meta_.push_back(std::move(json)); }

  void add(double ts_us, std::string json) {
    entries_.push_back(Entry{ts_us, seq_++, std::move(json)});
  }

  std::string finish(std::uint64_t recorded, std::uint64_t dropped) {
    std::stable_sort(entries_.begin(), entries_.end(),
                     [](const Entry& a, const Entry& b) {
                       return a.ts_us != b.ts_us ? a.ts_us < b.ts_us
                                                 : a.seq < b.seq;
                     });
    std::string out = "{\"traceEvents\":[";
    bool first = true;
    for (const auto& m : meta_) {
      if (!first) out += ',';
      first = false;
      out += m;
    }
    for (const auto& e : entries_) {
      if (!first) out += ',';
      first = false;
      out += e.json;
    }
    out += "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"recorded\":";
    out += std::to_string(recorded);
    out += ",\"dropped\":";
    out += std::to_string(dropped);
    out += "}}";
    return out;
  }

 private:
  std::vector<std::string> meta_;
  std::vector<Entry> entries_;
  std::uint64_t seq_ = 0;
};

std::string event_args(const Event& e) {
  std::ostringstream os;
  switch (e.kind) {
    case EventKind::kRunBegin:
      os << "{}";
      break;
    case EventKind::kRunEnd:
      os << "{\"steals\":" << e.a << ",\"reduces\":" << e.b << '}';
      break;
    case EventKind::kFrameEnter:
    case EventKind::kFrameReturn:
      os << "{\"frame\":" << e.frame << ",\"parent\":"
         << static_cast<std::int64_t>(static_cast<std::int32_t>(e.a))
         << ",\"vid\":" << e.b << '}';
      break;
    case EventKind::kSync:
      os << "{\"frame\":" << e.frame << '}';
      break;
    case EventKind::kSteal:
      os << "{\"frame\":" << e.frame << ",\"cont_index\":" << e.a
         << ",\"view\":" << e.b << '}';
      break;
    case EventKind::kReduceBegin:
    case EventKind::kReduceEnd:
      os << "{\"frame\":" << e.frame << ",\"left_view\":" << e.a
         << ",\"right_view\":" << e.b << '}';
      break;
    case EventKind::kViewCreate:
      os << "{\"view\":" << e.a << ",\"reducer\":" << e.b
         << ",\"identity\":" << (e.aux != 0 ? "true" : "false")
         << ",\"label\":\"" << json_escaped(e.label) << "\"}";
      break;
    case EventKind::kViewDestroy:
      os << "{\"view\":" << e.a << ",\"reducer\":" << e.b << '}';
      break;
    case EventKind::kReducerOp:
      os << "{\"reducer\":" << e.a << ",\"op\":\"" << reducer_op_name(e.aux)
         << "\",\"label\":\"" << json_escaped(e.label) << "\"}";
      break;
    case EventKind::kConflict:
      os << "{\"addr\":" << e.a << ",\"prior_frame\":" << e.b
         << ",\"frame\":" << e.frame << ",\"write\":"
         << ((e.aux & trace::kConflictWrite) ? "true" : "false")
         << ",\"prior_write\":"
         << ((e.aux & trace::kConflictPriorWrite) ? "true" : "false")
         << ",\"view_aware\":"
         << ((e.aux & trace::kConflictViewAware) ? "true" : "false")
         << ",\"view_read\":"
         << ((e.aux & trace::kConflictViewRead) ? "true" : "false")
         << ",\"label\":\"" << json_escaped(e.label) << "\"}";
      break;
  }
  return os.str();
}

std::string instant_name(const Event& e) {
  std::ostringstream os;
  os << event_kind_name(e.kind);
  switch (e.kind) {
    case EventKind::kSteal:
      os << " cont " << e.a << " -> view " << e.b;
      break;
    case EventKind::kReduceBegin:
    case EventKind::kReduceEnd:
      os << " view " << e.b << " -> " << e.a;
      break;
    case EventKind::kViewCreate:
    case EventKind::kViewDestroy:
      os << " reducer " << e.b;
      break;
    case EventKind::kReducerOp:
      os << ' ' << reducer_op_name(e.aux);
      break;
    case EventKind::kConflict:
      os << ((e.aux & trace::kConflictViewRead) ? " view-read" : "")
         << " [" << json_escaped(e.label) << ']';
      break;
    default:
      break;
  }
  return os.str();
}

}  // namespace

std::string chrome_trace_json(const trace::Session& session) {
  ChromeWriter w;
  const auto buffers = session.buffers();

  // Rebase timestamps at the session's earliest event.
  std::uint64_t base = UINT64_MAX;
  for (const trace::Buffer* buf : buffers) {
    for (const Event& e : buf->ordered()) base = std::min(base, e.nanos);
  }
  if (base == UINT64_MAX) base = 0;
  const auto us = [base](std::uint64_t nanos) {
    return static_cast<double>(nanos - base) / 1000.0;
  };

  // Globally unique flow ids across buffers and runs.
  std::uint64_t next_flow = 1;

  int pid = 0;
  for (const trace::Buffer* buf : buffers) {
    w.add_meta("{\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
               ",\"name\":\"process_name\",\"args\":{\"name\":\"" +
               json_escaped(buf->name()) + "\"}}");

    struct OpenFrame {
      std::uint64_t start_nanos = 0;
      std::uint32_t worker = 0;
      std::uint8_t aux = 0;
      std::uint64_t parent = 0;
      std::uint64_t vid = 0;
    };
    std::unordered_map<std::uint32_t, OpenFrame> open;
    std::unordered_map<std::uint64_t, std::uint64_t> view_flows;  // vid->id
    std::unordered_map<std::uint32_t, bool> workers_seen;

    for (const Event& e : buf->ordered()) {
      workers_seen.emplace(e.worker, true);
      const std::string common = ",\"pid\":" + std::to_string(pid) +
                                 ",\"tid\":" + std::to_string(e.worker) +
                                 ",\"ts\":" + format_ts(us(e.nanos));
      switch (e.kind) {
        case EventKind::kRunBegin:
          // A fresh engine run reuses frame ids and view ids: reset the
          // per-run pairing state.
          open.clear();
          view_flows.clear();
          break;
        case EventKind::kFrameEnter: {
          OpenFrame f;
          f.start_nanos = e.nanos;
          f.worker = e.worker;
          f.aux = e.aux;
          f.parent = e.a;
          f.vid = e.b;
          open[e.frame] = f;
          continue;  // the slice is emitted at return
        }
        case EventKind::kFrameReturn: {
          auto it = open.find(e.frame);
          if (it == open.end()) continue;  // enter dropped by the ring
          const OpenFrame f = it->second;
          open.erase(it);
          std::ostringstream os;
          os << "{\"ph\":\"X\",\"name\":\"" << frame_kind_name(f.aux) << " #"
             << e.frame << "\",\"cat\":\"frame\",\"pid\":" << pid
             << ",\"tid\":" << f.worker << ",\"ts\":"
             << format_ts(us(f.start_nanos)) << ",\"dur\":"
             << format_ts(static_cast<double>(e.nanos - f.start_nanos) /
                          1000.0)
             << ",\"args\":{\"frame\":" << e.frame << ",\"parent\":"
             << static_cast<std::int64_t>(static_cast<std::int32_t>(f.parent))
             << ",\"vid\":" << f.vid << "}}";
          w.add(us(f.start_nanos), os.str());
          continue;
        }
        case EventKind::kSteal: {
          // Flow start: the stolen continuation's fresh view, consumed by
          // the reduce that later merges it away.
          const std::uint64_t id = next_flow++;
          view_flows[e.b] = id;
          w.add(us(e.nanos),
                "{\"ph\":\"s\",\"name\":\"reduce view " +
                    std::to_string(e.b) + "\",\"cat\":\"reduce\",\"id\":" +
                    std::to_string(id) + common + "}");
          break;
        }
        case EventKind::kReduceBegin: {
          auto it = view_flows.find(e.b);
          if (it != view_flows.end()) {
            w.add(us(e.nanos),
                  "{\"ph\":\"f\",\"bp\":\"e\",\"name\":\"reduce view " +
                      std::to_string(e.b) + "\",\"cat\":\"reduce\",\"id\":" +
                      std::to_string(it->second) + common + "}");
            view_flows.erase(it);
          }
          break;
        }
        default:
          break;
      }
      // Everything that falls through is an instant event.
      std::ostringstream os;
      os << "{\"ph\":\"i\",\"s\":\"t\",\"name\":\"" << instant_name(e)
         << "\",\"cat\":\"" << event_kind_name(e.kind) << '"' << common
         << ",\"args\":" << event_args(e) << '}';
      w.add(us(e.nanos), os.str());
    }

    for (const auto& [worker, seen] : workers_seen) {
      (void)seen;
      w.add_meta("{\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
                 ",\"tid\":" + std::to_string(worker) +
                 ",\"name\":\"thread_name\",\"args\":{\"name\":\"worker " +
                 std::to_string(worker) + "\"}}");
    }
    ++pid;
  }
  return w.finish(session.total_recorded(), session.total_dropped());
}

std::string text_timeline(const trace::Session& session) {
  std::ostringstream os;
  int idx = 0;
  for (const trace::Buffer* buf : session.buffers()) {
    const auto events = buf->ordered();
    os << "== buffer " << idx++ << " \"" << buf->name() << "\" ("
       << events.size() << " events, " << buf->dropped() << " dropped) ==\n";
    const std::uint64_t base = events.empty() ? 0 : events.front().nanos;
    for (const Event& e : events) {
      char head[64];
      std::snprintf(head, sizeof(head), "  +%10.3fus w%-2u %-13s",
                    static_cast<double>(e.nanos - base) / 1000.0, e.worker,
                    event_kind_name(e.kind));
      os << head;
      switch (e.kind) {
        case EventKind::kRunBegin:
          break;
        case EventKind::kRunEnd:
          os << "steals=" << e.a << " reduces=" << e.b;
          break;
        case EventKind::kFrameEnter:
        case EventKind::kFrameReturn:
          os << '#' << e.frame << " (" << frame_kind_name(e.aux)
             << ", parent #"
             << static_cast<std::int64_t>(static_cast<std::int32_t>(e.a));
          if (e.kind == EventKind::kFrameEnter) os << ", view " << e.b;
          os << ')';
          break;
        case EventKind::kSync:
          os << '#' << e.frame;
          break;
        case EventKind::kSteal:
          os << '#' << e.frame << " cont " << e.a << " -> view " << e.b;
          break;
        case EventKind::kReduceBegin:
        case EventKind::kReduceEnd:
          os << '#' << e.frame << " view " << e.b << " -> " << e.a;
          break;
        case EventKind::kViewCreate:
          os << "reducer " << e.b << " view " << e.a
             << (e.aux != 0 ? " (identity)" : " (leftmost)");
          if (e.label[0] != '\0') os << " [" << e.label << ']';
          break;
        case EventKind::kViewDestroy:
          os << "reducer " << e.b << " view " << e.a;
          break;
        case EventKind::kReducerOp:
          os << reducer_op_name(e.aux) << " reducer " << e.a;
          if (e.label[0] != '\0') os << " [" << e.label << ']';
          break;
        case EventKind::kConflict:
          os << ((e.aux & trace::kConflictViewRead) ? "view-read reducer "
                                                    : "addr ")
             << e.a << " vs frame #" << e.b << " in #" << e.frame;
          if (e.label[0] != '\0') os << " [" << e.label << ']';
          break;
      }
      os << '\n';
    }
  }
  return os.str();
}

bool write_chrome_trace(const trace::Session& session,
                        const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << chrome_trace_json(session);
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace rader
