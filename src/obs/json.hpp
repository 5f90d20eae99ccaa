// The JSON token writers every obs exporter shares (run summaries,
// snapshot timelines, Chrome traces), so a double or a string renders the
// same way in all of them.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace hprs::obs {

/// A double as %.17g: it round-trips exactly and ignores the locale.
inline std::string json_number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// A quoted JSON string literal: quote, backslash and control bytes are
/// escaped, every other byte passes through.
inline std::string json_string(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

}  // namespace hprs::obs
