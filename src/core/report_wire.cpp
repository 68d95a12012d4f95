#include "core/report_wire.hpp"

#include <charconv>
#include <cstdlib>
#include <type_traits>
#include <vector>

namespace rader {

namespace {

/// Minimal recursive-descent parser for the JSON subset RaceLog::to_json()
/// emits (objects, arrays, strings with \" \\ \n \t \uXXXX escapes,
/// unsigned integers, booleans, null).  Unknown members are skipped, so a
/// newer producer's additive fields do not break an older supervisor.
struct Parser {
  const char* p;
  const char* end;
  std::string* error;

  bool fail(const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  }

  void skip_ws() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) {
      ++p;
    }
  }

  bool expect(char c) {
    skip_ws();
    if (p >= end || *p != c) {
      return fail(std::string("expected '") + c + "'");
    }
    ++p;
    return true;
  }

  bool peek_is(char c) {
    skip_ws();
    return p < end && *p == c;
  }

  bool parse_string(std::string* out) {
    if (!expect('"')) return false;
    out->clear();
    while (p < end && *p != '"') {
      char c = *p++;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (p >= end) return fail("truncated escape");
      const char e = *p++;
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'n': out->push_back('\n'); break;
        case 't': out->push_back('\t'); break;
        case 'r': out->push_back('\r'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'u': {
          if (end - p < 4) return fail("truncated \\u escape");
          unsigned v = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = *p++;
            v <<= 4;
            if (h >= '0' && h <= '9') {
              v |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              v |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              v |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return fail("bad \\u escape");
            }
          }
          // The writer only escapes control characters this way; anything
          // wider is stored as UTF-8 already.
          out->push_back(static_cast<char>(v & 0xff));
          break;
        }
        default: return fail("unknown escape");
      }
    }
    if (p >= end) return fail("unterminated string");
    ++p;  // closing quote
    return true;
  }

  bool parse_u64(std::uint64_t* out) {
    skip_ws();
    const char* start = p;
    char buf[32];
    std::size_t n = 0;
    while (p < end && *p >= '0' && *p <= '9' && n < sizeof buf - 1) {
      buf[n++] = *p++;
    }
    if (n == 0) return fail("expected integer");
    if (p < end && *p >= '0' && *p <= '9') return fail("integer too long");
    buf[n] = '\0';
    char* endp = nullptr;
    *out = std::strtoull(buf, &endp, 10);
    (void)start;
    return true;
  }

  bool parse_bool(bool* out) {
    skip_ws();
    if (end - p >= 4 && std::string_view(p, 4) == "true") {
      p += 4;
      *out = true;
      return true;
    }
    if (end - p >= 5 && std::string_view(p, 5) == "false") {
      p += 5;
      *out = false;
      return true;
    }
    return fail("expected boolean");
  }

  /// Skip any value; when `raw` is non-null, capture its exact text (used
  /// to carry provenance objects verbatim).  Depth-capped so adversarial
  /// nesting cannot blow the stack.
  bool skip_value(std::string* raw, int depth = 0) {
    if (depth > 64) return fail("nesting too deep");
    skip_ws();
    const char* start = p;
    if (p >= end) return fail("truncated value");
    bool ok = true;
    if (*p == '"') {
      std::string s;
      ok = parse_string(&s);
    } else if (*p == '{') {
      ++p;
      if (!peek_is('}')) {
        do {
          std::string key;
          if (!parse_string(&key) || !expect(':') ||
              !skip_value(nullptr, depth + 1)) {
            return false;
          }
        } while (peek_is(',') && expect(','));
      }
      ok = expect('}');
    } else if (*p == '[') {
      ++p;
      if (!peek_is(']')) {
        do {
          if (!skip_value(nullptr, depth + 1)) return false;
        } while (peek_is(',') && expect(','));
      }
      ok = expect(']');
    } else if (*p == 't' || *p == 'f') {
      bool b;
      ok = parse_bool(&b);
    } else if (end - p >= 4 && std::string_view(p, 4) == "null") {
      p += 4;
    } else {
      while (p < end && (*p == '-' || *p == '+' || *p == '.' || *p == 'e' ||
                         *p == 'E' || (*p >= '0' && *p <= '9'))) {
        ++p;
      }
      if (p == start) return fail("unparseable value");
    }
    if (ok && raw != nullptr) raw->assign(start, p);
    return ok;
  }

  bool parse_string_array(std::vector<std::string>* out) {
    if (!expect('[')) return false;
    out->clear();
    if (peek_is(']')) return expect(']');
    do {
      std::string s;
      if (!parse_string(&s)) return false;
      out->push_back(std::move(s));
    } while (peek_is(',') && expect(','));
    return expect(']');
  }
};

bool parse_view_read(Parser& ps, ViewReadRace* r) {
  if (!ps.expect('{')) return false;
  if (ps.peek_is('}')) return ps.expect('}');
  do {
    std::string key;
    if (!ps.parse_string(&key) || !ps.expect(':')) return false;
    std::uint64_t u = 0;
    if (key == "reducer") {
      if (!ps.parse_u64(&u)) return false;
      r->reducer = static_cast<ReducerId>(u);
    } else if (key == "prior_frame") {
      if (!ps.parse_u64(&u)) return false;
      r->prior_frame = static_cast<FrameId>(u);
    } else if (key == "current_frame") {
      if (!ps.parse_u64(&u)) return false;
      r->current_frame = static_cast<FrameId>(u);
    } else if (key == "occurrences") {
      if (!ps.parse_u64(&r->occurrences)) return false;
    } else if (key == "prior_label") {
      if (!ps.parse_string(&r->prior_label)) return false;
    } else if (key == "current_label") {
      if (!ps.parse_string(&r->current_label)) return false;
    } else if (key == "found_under") {
      if (!ps.parse_string(&r->found_under)) return false;
    } else if (key == "eliciting_specs") {
      if (!ps.parse_string_array(&r->eliciting_specs)) return false;
    } else if (key == "provenance") {
      if (!ps.skip_value(&r->provenance_json)) return false;
    } else if (key == "repro_file") {
      if (!ps.parse_string(&r->repro_file)) return false;
    } else {
      if (!ps.skip_value(nullptr)) return false;
    }
  } while (ps.peek_is(',') && ps.expect(','));
  return ps.expect('}');
}

bool parse_determinacy(Parser& ps, DeterminacyRace* r) {
  if (!ps.expect('{')) return false;
  if (ps.peek_is('}')) return ps.expect('}');
  do {
    std::string key;
    if (!ps.parse_string(&key) || !ps.expect(':')) return false;
    std::uint64_t u = 0;
    if (key == "addr") {
      if (!ps.parse_u64(&u)) return false;
      r->addr = static_cast<std::uintptr_t>(u);
    } else if (key == "kind") {
      std::string kind;
      if (!ps.parse_string(&kind)) return false;
      r->current_kind =
          kind == "write" ? AccessKind::kWrite : AccessKind::kRead;
    } else if (key == "view_aware") {
      if (!ps.parse_bool(&r->current_view_aware)) return false;
    } else if (key == "prior_was_write") {
      if (!ps.parse_bool(&r->prior_was_write)) return false;
    } else if (key == "prior_frame") {
      if (!ps.parse_u64(&u)) return false;
      r->prior_frame = static_cast<FrameId>(u);
    } else if (key == "current_frame") {
      if (!ps.parse_u64(&u)) return false;
      r->current_frame = static_cast<FrameId>(u);
    } else if (key == "occurrences") {
      if (!ps.parse_u64(&r->occurrences)) return false;
    } else if (key == "label") {
      if (!ps.parse_string(&r->current_label)) return false;
    } else if (key == "found_under") {
      if (!ps.parse_string(&r->found_under)) return false;
    } else if (key == "eliciting_specs") {
      if (!ps.parse_string_array(&r->eliciting_specs)) return false;
    } else if (key == "provenance") {
      if (!ps.skip_value(&r->provenance_json)) return false;
    } else if (key == "repro_file") {
      if (!ps.parse_string(&r->repro_file)) return false;
    } else {
      if (!ps.skip_value(nullptr)) return false;
    }
  } while (ps.peek_is(',') && ps.expect(','));
  return ps.expect('}');
}

}  // namespace

bool race_log_from_json(const std::string& json, RaceLog* out,
                        std::string* error) {
  Parser ps{json.data(), json.data() + json.size(), error};
  std::uint64_t vr_total = 0;
  std::uint64_t det_total = 0;
  std::vector<ViewReadRace> view_reads;
  std::vector<DeterminacyRace> determinacies;

  if (!ps.expect('{')) return false;
  if (!ps.peek_is('}')) {
    do {
      std::string key;
      if (!ps.parse_string(&key) || !ps.expect(':')) return false;
      if (key == "view_read_occurrences") {
        if (!ps.parse_u64(&vr_total)) return false;
      } else if (key == "determinacy_occurrences") {
        if (!ps.parse_u64(&det_total)) return false;
      } else if (key == "view_read_races") {
        if (!ps.expect('[')) return false;
        if (!ps.peek_is(']')) {
          do {
            ViewReadRace r;
            if (!parse_view_read(ps, &r)) return false;
            view_reads.push_back(std::move(r));
          } while (ps.peek_is(',') && ps.expect(','));
        }
        if (!ps.expect(']')) return false;
      } else if (key == "determinacy_races") {
        if (!ps.expect('[')) return false;
        if (!ps.peek_is(']')) {
          do {
            DeterminacyRace r;
            if (!parse_determinacy(ps, &r)) return false;
            determinacies.push_back(std::move(r));
          } while (ps.peek_is(',') && ps.expect(','));
        }
        if (!ps.expect(']')) return false;
      } else {
        if (!ps.skip_value(nullptr)) return false;
      }
    } while (ps.peek_is(',') && ps.expect(','));
  }
  if (!ps.expect('}')) return false;
  ps.skip_ws();
  if (ps.p != ps.end) return ps.fail("trailing bytes after race log");

  // The totals are occurrence *sums*; the stored reports can only account
  // for at most that many (cap-dropped identities tally but do not store).
  std::uint64_t vr_stored = 0;
  for (const auto& r : view_reads) vr_stored += r.occurrences;
  std::uint64_t det_stored = 0;
  for (const auto& r : determinacies) det_stored += r.occurrences;
  if (vr_stored > vr_total || det_stored > det_total) {
    return ps.fail("stored occurrences exceed declared totals");
  }

  // Rebuild through the public report path so dedup maps, identity keys,
  // and eliciting-spec order come out exactly as the producer had them.
  // Metrics stay silent: the producer's detector/dedup bumps already
  // happened in its process and travel in its metrics snapshot.
  out->clear();
  {
    metrics::Scope metrics_off(static_cast<metrics::Registry*>(nullptr));
    for (const auto& r : view_reads) out->report_view_read(r);
    for (const auto& r : determinacies) out->report_determinacy(r);
    out->add_unstored_occurrences(vr_total - vr_stored,
                                  det_total - det_stored);
  }
  return true;
}

std::string snapshot_to_wire(const metrics::Snapshot& snap) {
  using metrics::kSnapshotWords;
  // std::to_chars into one preallocated buffer: this runs once per swept
  // spec inside the sandbox child, so it must not dominate the per-spec
  // supervisor tax the isolation_overhead bench gates.
  std::string out;
  out.resize((kSnapshotWords + 1) * 21);  // u64 max is 20 digits + separator
  char* p = out.data();
  char* const end = out.data() + out.size();
  p = std::to_chars(p, end, kSnapshotWords).ptr;
  metrics::for_each_word([&p, end](metrics::Fold, const auto& word) {
    *p++ = ' ';
    p = std::to_chars(p, end, static_cast<std::uint64_t>(word)).ptr;
  }, snap);
  out.resize(static_cast<std::size_t>(p - out.data()));
  return out;
}

bool snapshot_from_wire(const std::string& text, metrics::Snapshot* out) {
  const char* p = text.c_str();
  const auto next = [&p](std::uint64_t* v) {
    char* end = nullptr;
    *v = std::strtoull(p, &end, 10);
    if (end == p) return false;
    p = end;
    return true;
  };
  std::uint64_t count = 0;
  if (!next(&count) || count != metrics::kSnapshotWords) return false;
  *out = metrics::Snapshot{};
  bool ok = true;
  metrics::for_each_word([&](metrics::Fold, auto& word) {
    std::uint64_t v = 0;
    ok = ok && next(&v);
    word = static_cast<std::remove_reference_t<decltype(word)>>(v);
  }, *out);
  if (!ok) return false;
  while (*p == ' ') ++p;
  return *p == '\0';
}

}  // namespace rader
