#include "core/report_wire.hpp"

#include <cerrno>
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

  /// An unsigned integer that fits `T`; a wider one is rejected, not
  /// clamped or narrowed.
  template <class T>
  bool parse_uint(T* out) {
    skip_ws();
    const auto [next, ec] = std::from_chars(p, end, *out);
    if (ec == std::errc::result_out_of_range) {
      return fail("integer out of range");
    }
    if (ec != std::errc() || next == p) return fail("expected integer");
    p = next;
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
      ok = parse_object([this, depth](const std::string&) {
        return skip_value(nullptr, depth + 1);
      });
    } else if (*p == '[') {
      ok = parse_array([this, depth] { return skip_value(nullptr, depth + 1); });
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

  /// `{"key":value,...}`: `member(key)` parses each value.
  template <class F>
  bool parse_object(F member) {
    if (!expect('{')) return false;
    if (peek_is('}')) return expect('}');
    do {
      std::string key;
      if (!parse_string(&key) || !expect(':') || !member(key)) return false;
    } while (peek_is(',') && expect(','));
    return expect('}');
  }

  /// `[element,...]`: `element()` parses each one.
  template <class F>
  bool parse_array(F element) {
    if (!expect('[')) return false;
    if (peek_is(']')) return expect(']');
    do {
      if (!element()) return false;
    } while (peek_is(',') && expect(','));
    return expect(']');
  }

  bool parse_string_array(std::vector<std::string>* out) {
    out->clear();
    return parse_array([this, out] {
      return parse_string(&out->emplace_back());
    });
  }
};

// Each kind's own keys; anything unknown is skipped.
bool parse_own_key(Parser& ps, const std::string& key, ViewReadRace* r) {
  if (key == "reducer") return ps.parse_uint(&r->reducer);
  if (key == "prior_label") return ps.parse_string(&r->prior_label);
  if (key == "current_label") return ps.parse_string(&r->current_label);
  return ps.skip_value(nullptr);
}

bool parse_own_key(Parser& ps, const std::string& key, DeterminacyRace* r) {
  if (key == "addr") return ps.parse_uint(&r->addr);
  if (key == "kind") {
    std::string kind;
    if (!ps.parse_string(&kind)) return false;
    r->current_kind = kind == "write" ? AccessKind::kWrite : AccessKind::kRead;
    return true;
  }
  if (key == "view_aware") return ps.parse_bool(&r->current_view_aware);
  if (key == "prior_was_write") return ps.parse_bool(&r->prior_was_write);
  if (key == "label") return ps.parse_string(&r->current_label);
  return ps.skip_value(nullptr);
}

/// One kind's races array, as RaceLog::to_json() writes it, plus the kind's
/// declared occurrence total.
template <class Race>
struct ParsedKind {
  std::uint64_t total = 0;
  std::vector<Race> races;

  bool parse_races(Parser& ps) {
    return ps.parse_array([this, &ps] {
      Race& r = races.emplace_back();
      return ps.parse_object([&ps, &r](const std::string& key) {
        if (key == "prior_frame") return ps.parse_uint(&r.prior_frame);
        if (key == "current_frame") return ps.parse_uint(&r.current_frame);
        if (key == "occurrences") return ps.parse_uint(&r.occurrences);
        if (key == "found_under") return ps.parse_string(&r.found_under);
        if (key == "eliciting_specs") {
          return ps.parse_string_array(&r.eliciting_specs);
        }
        if (key == "provenance") return ps.skip_value(&r.provenance_json);
        if (key == "repro_file") return ps.parse_string(&r.repro_file);
        return parse_own_key(ps, key, &r);
      });
    });
  }

  /// The occurrences the stored reports do not account for (cap-dropped
  /// identities tally but do not store); false when they account for more
  /// than the declared total, or their sum overflows.
  bool unstored(std::uint64_t* rest) const {
    std::uint64_t stored = 0;
    for (const Race& r : races) {
      if (__builtin_add_overflow(stored, r.occurrences, &stored)) return false;
    }
    if (stored > total) return false;
    *rest = total - stored;
    return true;
  }
};

}  // namespace

bool race_log_from_json(const std::string& json, RaceLog* out,
                        std::string* error) {
  Parser ps{json.data(), json.data() + json.size(), error};
  ParsedKind<ViewReadRace> view_reads;
  ParsedKind<DeterminacyRace> determinacies;
  const bool parsed = ps.parse_object([&](const std::string& key) {
    if (key == "view_read_occurrences") {
      return ps.parse_uint(&view_reads.total);
    }
    if (key == "determinacy_occurrences") {
      return ps.parse_uint(&determinacies.total);
    }
    if (key == "view_read_races") return view_reads.parse_races(ps);
    if (key == "determinacy_races") return determinacies.parse_races(ps);
    return ps.skip_value(nullptr);
  });
  if (!parsed) return false;
  ps.skip_ws();
  if (ps.p != ps.end) return ps.fail("trailing bytes after race log");

  std::uint64_t vr_rest = 0;
  std::uint64_t det_rest = 0;
  if (!view_reads.unstored(&vr_rest) || !determinacies.unstored(&det_rest)) {
    return ps.fail("stored occurrences exceed declared totals");
  }

  // Rebuild through the public report path so dedup maps, identity keys,
  // and eliciting-spec order come out exactly as the producer had them.
  // Metrics stay silent: the producer's detector/dedup bumps already
  // happened in its process and travel in its metrics snapshot.
  out->clear();
  {
    metrics::Scope metrics_off(static_cast<metrics::Registry*>(nullptr));
    for (const auto& r : view_reads.races) out->report_view_read(r);
    for (const auto& r : determinacies.races) out->report_determinacy(r);
    out->add_unstored_occurrences(vr_rest, det_rest);
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
    errno = 0;
    *v = std::strtoull(p, &end, 10);
    if (end == p || errno == ERANGE) return false;
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
