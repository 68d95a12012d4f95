// JSON string escaping, shared by every JSON writer in the library: the race
// log, the rader.report envelope, provenance records and Chrome traces.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace rader {

/// `s` as the inside of a JSON string literal (no quotes): `"` and `\` are
/// backslash-escaped, newline and tab become \n and \t, and every other
/// control character becomes \u00XX, which JSON requires of all of them.
inline std::string json_escaped(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// `s` as a quoted JSON string literal.
inline std::string json_quoted(std::string_view s) {
  return '"' + json_escaped(s) + '"';
}

}  // namespace rader
