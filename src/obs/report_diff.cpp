#include "obs/report_diff.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <tuple>
#include <utility>

namespace hprs::obs {
namespace {

struct Cursor {
  std::string_view text;
  std::size_t pos = 0;

  void skip_ws() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  }
  [[nodiscard]] bool eof() const { return pos >= text.size(); }
  [[nodiscard]] char peek() const { return text[pos]; }
};

// Reads a JSON string literal (with escapes) and returns its decoded value.
bool read_string(Cursor& c, std::string& out, std::string& error) {
  if (c.eof() || c.peek() != '"') {
    error = "expected '\"' at offset " + std::to_string(c.pos);
    return false;
  }
  ++c.pos;
  out.clear();
  while (!c.eof() && c.peek() != '"') {
    const char ch = c.text[c.pos++];
    if (ch != '\\') {
      out += ch;
      continue;
    }
    if (c.eof()) break;
    const std::size_t at = c.pos - 1;
    const char esc = c.text[c.pos++];
    switch (esc) {
      case '"':
      case '\\':
      case '/': out += esc; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        // Exactly four hex digits naming an ASCII code point: the writer
        // escapes only control bytes, and passes other text through as
        // raw UTF-8, so a wider code point is not one of its documents.
        const std::string_view hex = c.text.substr(c.pos, 4);
        unsigned code = 0;
        const auto [last, ec] =
            std::from_chars(hex.data(), hex.data() + hex.size(), code, 16);
        if (hex.size() != 4 || ec != std::errc() ||
            last != hex.data() + hex.size() || code > 0x7F) {
          error = "bad \\u escape at offset " + std::to_string(at) +
                  " (want four hex digits of an ASCII code point)";
          return false;
        }
        c.pos += 4;
        out += static_cast<char>(code);
        break;
      }
      default:
        error = std::string("unknown escape '\\") + esc + "' at offset " +
                std::to_string(at);
        return false;
    }
  }
  if (c.eof()) {
    error = "unterminated string";
    return false;
  }
  ++c.pos;  // closing quote
  return true;
}

// Reads one scalar value token verbatim (string, number, true/false/null).
bool read_token(Cursor& c, std::string& out, std::string& error) {
  c.skip_ws();
  if (c.eof()) {
    error = "expected value, found end of input";
    return false;
  }
  const std::size_t start = c.pos;
  if (c.peek() == '"') {
    std::string ignored;
    if (!read_string(c, ignored, error)) return false;
  } else {
    while (!c.eof() && c.peek() != ',' && c.peek() != '}' &&
           !std::isspace(static_cast<unsigned char>(c.peek()))) {
      ++c.pos;
    }
    if (c.pos == start) {
      error = "empty value at offset " + std::to_string(start);
      return false;
    }
  }
  out = std::string(c.text.substr(start, c.pos - start));
  return true;
}

bool parse_number(std::string_view token, double& out) {
  const std::string s(token);
  char* end = nullptr;
  out = std::strtod(s.c_str(), &end);
  return end != nullptr && end == s.c_str() + s.size() && !s.empty();
}

bool is_metadata_key(std::string_view key) {
  return key.rfind("_metadata.", 0) == 0;
}

}  // namespace

bool parse_flat_json(std::string_view text,
                     std::map<std::string, std::string>& out,
                     std::string& error) {
  out.clear();
  Cursor c{text};
  c.skip_ws();
  if (c.eof() || c.peek() != '{') {
    error = "expected '{' to open the summary object";
    return false;
  }
  ++c.pos;
  c.skip_ws();
  if (!c.eof() && c.peek() == '}') {
    ++c.pos;
    return true;
  }
  while (true) {
    c.skip_ws();
    std::string key;
    if (!read_string(c, key, error)) return false;
    c.skip_ws();
    if (c.eof() || c.peek() != ':') {
      error = "expected ':' after key \"" + key + "\"";
      return false;
    }
    ++c.pos;
    std::string token;
    if (!read_token(c, token, error)) {
      error = "key \"" + key + "\": " + error;
      return false;
    }
    if (out.count(key) != 0) {
      error = "duplicate key \"" + key + "\"";
      return false;
    }
    out.emplace(std::move(key), std::move(token));
    c.skip_ws();
    if (!c.eof() && c.peek() == ',') {
      ++c.pos;
      continue;
    }
    if (!c.eof() && c.peek() == '}') {
      ++c.pos;
      return true;
    }
    error = "expected ',' or '}' at offset " + std::to_string(c.pos);
    return false;
  }
}

bool decode_string_token(std::string_view token, std::string& out,
                         std::string& error) {
  Cursor c{token};
  if (!read_string(c, out, error)) return false;
  if (!c.eof()) {
    error = "trailing characters after the string at offset " +
            std::to_string(c.pos);
    return false;
  }
  return true;
}

bool is_host_time_key(std::string_view key) {
  return key.find("host") != std::string_view::npos;
}

DiffResult diff_summaries(const std::map<std::string, std::string>& golden,
                          const std::map<std::string, std::string>& actual,
                          const DiffOptions& options) {
  DiffResult result;
  for (const auto& [key, gold_token] : golden) {
    if (is_metadata_key(key)) continue;
    auto it = actual.find(key);
    if (it == actual.end()) {
      result.mismatches.push_back(
          {key, gold_token, "<missing>", "key missing from actual summary"});
      continue;
    }
    ++result.keys_compared;
    const std::string& act_token = it->second;
    if (is_host_time_key(key)) {
      double g = 0.0;
      double a = 0.0;
      if (!parse_number(gold_token, g) || !parse_number(act_token, a)) {
        if (gold_token != act_token) {
          result.mismatches.push_back(
              {key, gold_token, act_token, "non-numeric host value differs"});
        }
        continue;
      }
      const double lo = std::min(g, a);
      const double hi = std::max(g, a);
      const bool within_rel = hi <= lo * options.host_rel_tol;
      const bool within_abs = std::abs(g - a) <= options.host_abs_tol;
      if (!(within_rel || within_abs)) {
        result.mismatches.push_back(
            {key, gold_token, act_token,
             "host value outside rel_tol=" +
                 std::to_string(options.host_rel_tol) +
                 " / abs_tol=" + std::to_string(options.host_abs_tol)});
      }
    } else if (gold_token != act_token) {
      result.mismatches.push_back(
          {key, gold_token, act_token, "stable value differs (exact match "
                                       "required; see DESIGN.md §10)"});
    }
  }
  for (const auto& [key, act_token] : actual) {
    if (!is_metadata_key(key) && golden.find(key) == golden.end()) {
      result.mismatches.push_back(
          {key, "<missing>", act_token, "key absent from golden summary"});
    }
  }
  return result;
}

namespace {

struct TimelineKey {
  std::string scope;
  int seq = 0;
  std::string name;
};

// Splits "<scope>|<seq>|<name>" (scope is sanitized, so it contains no
// '|'; the name never does either).
bool split_timeline_key(std::string_view key, TimelineKey& out) {
  const std::size_t first = key.find('|');
  if (first == std::string_view::npos) return false;
  const std::size_t second = key.find('|', first + 1);
  if (second == std::string_view::npos || second + 1 >= key.size()) {
    return false;
  }
  out.scope = std::string(key.substr(0, first));
  out.name = std::string(key.substr(second + 1));
  const std::string seq_text(key.substr(first + 1, second - first - 1));
  char* end = nullptr;
  const long seq = std::strtol(seq_text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || seq_text.empty() || seq < 0) {
    return false;
  }
  out.seq = static_cast<int>(seq);
  return true;
}

}  // namespace

bool timeline_from_flat(const std::map<std::string, std::string>& flat,
                        SnapshotTimeline& out, std::string& error) {
  out.clear();
  // The flat map is key-sorted, so all entries of one (scope, seq) sample
  // are adjacent; within a sample "t_s" is just another sorted key.
  std::map<std::pair<std::string, int>, SnapshotSample> samples;
  for (const auto& [key, token] : flat) {
    if (key.rfind("_timeline.", 0) == 0) continue;
    TimelineKey parts;
    if (!split_timeline_key(key, parts)) {
      error = "key \"" + key + "\" is not in <scope>|<seq>|<name> shape";
      return false;
    }
    SnapshotSample& sample = samples[{parts.scope, parts.seq}];
    sample.scope = parts.scope;
    sample.seq = parts.seq;
    if (parts.name == "t_s") {
      double t = 0.0;
      if (!parse_number(token, t)) {
        error = "key \"" + key + "\": timestamp token \"" + token +
                "\" is not a number";
        return false;
      }
      sample.t_s = t;
      continue;
    }
    const Domain domain = is_host_time_key(parts.name) ? Domain::kHost
                                                       : Domain::kStable;
    if (token.find_first_of(".eE") == std::string::npos) {
      const std::string s(token);
      char* end = nullptr;
      const unsigned long long count = std::strtoull(s.c_str(), &end, 10);
      if (end == nullptr || *end != '\0' || s.empty()) {
        error = "key \"" + key + "\": token \"" + token +
                "\" is neither a counter nor a level";
        return false;
      }
      sample.pvars.counter(parts.name, count, domain);
    } else {
      double value = 0.0;
      if (!parse_number(token, value)) {
        error = "key \"" + key + "\": token \"" + token +
                "\" is not a number";
        return false;
      }
      sample.pvars.level(parts.name, value, domain);
    }
  }
  for (auto& [id, sample] : samples) out.append_sample(std::move(sample));
  out.finalize();
  return true;
}

TimelineDiffResult diff_timelines(
    const std::map<std::string, std::string>& golden,
    const std::map<std::string, std::string>& actual,
    const DiffOptions& options) {
  TimelineDiffResult result;
  result.diff = diff_summaries(golden, actual, options);
  if (result.diff.ok()) return result;

  // Localize the earliest divergence in *virtual time*, using whichever
  // side carries the sample's timestamp (the golden side wins ties).
  const DiffEntry* best = nullptr;
  TimelineKey best_key;
  double best_t = 0.0;
  for (const DiffEntry& entry : result.diff.mismatches) {
    TimelineKey parts;
    if (!split_timeline_key(entry.key, parts)) continue;
    char seq_buf[16];
    std::snprintf(seq_buf, sizeof(seq_buf), "%06d", parts.seq);
    const std::string t_key = parts.scope + "|" + seq_buf + "|t_s";
    double t = 0.0;
    bool have_t = false;
    if (auto it = golden.find(t_key); it != golden.end()) {
      have_t = parse_number(it->second, t);
    }
    if (!have_t) {
      if (auto it = actual.find(t_key); it != actual.end()) {
        have_t = parse_number(it->second, t);
      }
    }
    if (!have_t) t = 0.0;
    if (best == nullptr ||
        std::tie(t, parts.scope, parts.seq, parts.name) <
            std::tie(best_t, best_key.scope, best_key.seq, best_key.name)) {
      best = &entry;
      best_key = parts;
      best_t = t;
    }
  }
  char line[512];
  if (best != nullptr) {
    std::snprintf(line, sizeof(line),
                  "first divergence at t=%.6g s: scope \"%s\" sample %d, "
                  "key \"%s\" (golden %s, actual %s)",
                  best_t, best_key.scope.c_str(), best_key.seq,
                  best_key.name.c_str(), best->golden.c_str(),
                  best->actual.c_str());
  } else {
    const DiffEntry& entry = result.diff.mismatches.front();
    std::snprintf(line, sizeof(line),
                  "timelines differ at key \"%s\" (golden %s, actual %s)",
                  entry.key.c_str(), entry.golden.c_str(),
                  entry.actual.c_str());
  }
  result.first_divergence = line;
  return result;
}

}  // namespace hprs::obs
