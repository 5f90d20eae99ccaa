#include "obs/snapshot.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <sstream>
#include <tuple>

#include "obs/json.hpp"

namespace hprs::obs {
namespace {

std::string number_token(double value) {
  std::string token = json_number(value);
  // Force a decimal marker so a re-parse can tell a level ("3.0") from a
  // counter ("3") by the token shape alone.
  if (token.find_first_of(".eE") == std::string::npos &&
      token.find_first_not_of("-0123456789") == std::string::npos) {
    token += ".0";
  }
  return token;
}

std::string sample_key_prefix(const SnapshotSample& sample) {
  char seq[16];
  std::snprintf(seq, sizeof(seq), "%06d", sample.seq);
  return sample.scope + "|" + seq + "|";
}

// Suffixes ".host" to a host pvar whose name lacks "host": the report_diff
// threshold rule keys on that substring.
std::string exported_name(const Pvar& var) {
  if (var.domain == Domain::kHost &&
      var.name.find("host") == std::string::npos) {
    return var.name + ".host";
  }
  return var.name;
}

}  // namespace

int SnapshotTimeline::append(std::string_view scope, double t_s,
                             const PvarSet& pvars) {
  SnapshotSample sample;
  sample.scope = sanitize_scope(scope);
  sample.t_s = t_s;
  sample.pvars = pvars;
  auto it = next_seq_.find(sample.scope);
  if (it == next_seq_.end()) it = next_seq_.emplace(sample.scope, 0).first;
  sample.seq = it->second++;
  const int seq = sample.seq;
  samples_.push_back(std::move(sample));
  return seq;
}

void SnapshotTimeline::append_sample(SnapshotSample sample) {
  sample.scope = sanitize_scope(sample.scope);
  auto it = next_seq_.find(sample.scope);
  if (it == next_seq_.end()) it = next_seq_.emplace(sample.scope, 0).first;
  it->second = std::max(it->second, sample.seq + 1);
  samples_.push_back(std::move(sample));
}

void SnapshotTimeline::clear() {
  samples_.clear();
  next_seq_.clear();
}

void SnapshotTimeline::finalize() {
  std::sort(samples_.begin(), samples_.end(),
            [](const SnapshotSample& a, const SnapshotSample& b) {
              return std::tie(a.t_s, a.scope, a.seq) <
                     std::tie(b.t_s, b.scope, b.seq);
            });
}

std::string sanitize_scope(std::string_view scope) {
  std::string out(scope);
  for (char& c : out) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '|' || c == '"' || c == '\\' || c == ',' || u < 0x21 ||
        u == 0x7f) {
      c = '_';
    }
  }
  return out;
}

std::map<std::string, std::string> snapshot_timeline_flat(
    const SnapshotTimeline& timeline) {
  std::map<std::string, std::string> flat;
  std::map<std::string, int, std::less<>> scopes;
  for (const SnapshotSample& sample : timeline.samples()) {
    ++scopes[sample.scope];
    const std::string prefix = sample_key_prefix(sample);
    flat[prefix + "t_s"] = number_token(sample.t_s);
    for (const Pvar& var : sample.pvars.sorted()) {
      std::string& token = flat[prefix + exported_name(var)];
      if (var.cls == PvarClass::kCounter) {
        token = std::to_string(var.count);
      } else {
        token = number_token(var.value);
      }
    }
  }
  flat["_timeline.samples"] = std::to_string(timeline.size());
  flat["_timeline.scopes"] = std::to_string(scopes.size());
  return flat;
}

std::string snapshot_timeline_json(const SnapshotTimeline& timeline) {
  const auto flat = snapshot_timeline_flat(timeline);
  std::ostringstream os;
  os << "{\n";
  bool first = true;
  for (const auto& [key, token] : flat) {
    if (!first) os << ",\n";
    first = false;
    os << "  \"" << key << "\": " << token;
  }
  os << "\n}\n";
  return os.str();
}

std::string snapshot_timeline_csv(const SnapshotTimeline& timeline) {
  std::ostringstream os;
  os << "scope,seq,t_s,name,class,domain,count,value\n";
  for (const SnapshotSample& sample : timeline.samples()) {
    const std::string t = number_token(sample.t_s);
    for (const Pvar& var : sample.pvars.sorted()) {
      os << sample.scope << ',' << sample.seq << ',' << t << ','
         << exported_name(var) << ',' << to_string(var.cls) << ','
         << (var.domain == Domain::kStable ? "stable" : "host") << ','
         << var.count << ',' << number_token(var.value) << '\n';
    }
  }
  return os.str();
}

}  // namespace hprs::obs
