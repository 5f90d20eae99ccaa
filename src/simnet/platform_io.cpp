#include "simnet/platform_io.hpp"

#include <fstream>
#include <sstream>

#include "common/error.hpp"

namespace hprs::simnet {

namespace {

[[noreturn]] void fail(int line, const std::string& what) {
  throw Error("platform file, line " + std::to_string(line) + ": " + what);
}

}  // namespace

Platform parse_platform(const std::string& text) {
  std::istringstream in(text);
  std::string name;
  bool switched = false;
  std::size_t segments = 0;
  std::vector<std::vector<double>> capacity;
  std::vector<ProcessorSpec> procs;

  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    std::istringstream line(raw);
    std::string key;
    if (!(line >> key)) continue;  // blank

    if (key == "platform") {
      if (!(line >> name)) fail(line_no, "expected a platform name");
    } else if (key == "fabric") {
      std::string kind;
      if (!(line >> kind)) fail(line_no, "expected now|switched");
      if (kind == "now") {
        switched = false;
      } else if (kind == "switched") {
        switched = true;
      } else {
        fail(line_no, "unknown fabric '" + kind + "'");
      }
    } else if (key == "segments") {
      // Read signed: an unsigned extraction would wrap "-1" around.
      long long k = 0;
      if (!(line >> k) || k <= 0) {
        fail(line_no, "expected a positive segment count");
      }
      segments = static_cast<std::size_t>(k);
      // Each of the K*K capacity values takes at least one character, so a
      // count whose matrix cannot fit in the text is malformed.
      if (segments > text.size() / segments) {
        fail(line_no, "segment count " + std::to_string(segments) +
                          " needs " + std::to_string(segments) + " x " +
                          std::to_string(segments) +
                          " capacity values, more than the " +
                          std::to_string(text.size()) +
                          "-character file can hold");
      }
    } else if (key == "capacity") {
      if (segments == 0) fail(line_no, "capacity before segments");
      capacity.assign(segments, std::vector<double>(segments));
      // K*K values, starting on the `capacity` line and continuing across
      // as many following lines as needed.
      std::istringstream tok(raw.substr(raw.find("capacity") + 8));
      std::size_t filled = 0;
      while (filled < segments * segments) {
        double v = 0.0;
        if (tok >> v) {
          capacity[filled / segments][filled % segments] = v;
          ++filled;
          continue;
        }
        std::string next;
        if (!std::getline(in, next)) {
          fail(line_no, "incomplete capacity matrix");
        }
        ++line_no;
        const auto h = next.find('#');
        if (h != std::string::npos) next.erase(h);
        tok = std::istringstream(next);
      }
    } else if (key == "processor") {
      ProcessorSpec p;
      if (!(line >> p.name >> p.cycle_time >> p.memory_mb >> p.cache_kb >>
            p.segment)) {
        fail(line_no,
             "expected: processor <name> <cycle-time> <memory-mb> "
             "<cache-kb> <segment>");
      }
      std::string word;
      bool first_word = true;
      while (line >> word) {
        // Optional accelerator group directly after the segment, before the
        // architecture words: accel <stage-latency-ms> <stage-ms-per-mbit>.
        if (first_word && word == "accel") {
          first_word = false;
          if (!(line >> p.stage_latency_ms >> p.stage_ms_per_mbit)) {
            fail(line_no,
                 "expected: accel <stage-latency-ms> <stage-ms-per-mbit>");
          }
          p.accelerated = true;
          continue;
        }
        first_word = false;
        if (!p.architecture.empty()) p.architecture += ' ';
        p.architecture += word;
      }
      if (p.architecture.empty()) p.architecture = "unspecified";
      procs.push_back(std::move(p));
    } else {
      fail(line_no, "unknown directive '" + key + "'");
    }
  }

  if (name.empty()) throw Error("platform file: missing 'platform' line");
  if (capacity.empty()) throw Error("platform file: missing capacity matrix");
  if (procs.empty()) throw Error("platform file: no processors");
  return Platform(std::move(name), std::move(procs), std::move(capacity),
                  switched);
}

std::string format_platform(const Platform& platform) {
  std::ostringstream out;
  out << "platform " << platform.name() << "\n"
      << "fabric " << (platform.switched_fabric() ? "switched" : "now")
      << "\n"
      << "segments " << platform.segment_count() << "\n";
  out << "capacity";
  for (std::size_t a = 0; a < platform.segment_count(); ++a) {
    if (a > 0) out << "\n";
    for (std::size_t b = 0; b < platform.segment_count(); ++b) {
      out << ' ' << platform.segment_capacity_ms_per_mbit(a, b);
    }
  }
  out << "\n";
  for (std::size_t i = 0; i < platform.size(); ++i) {
    const auto& p = platform.processor(i);
    out << "processor " << p.name << ' ' << p.cycle_time << ' '
        << p.memory_mb << ' ' << p.cache_kb << ' ' << p.segment;
    if (p.accelerated) {
      out << " accel " << p.stage_latency_ms << ' ' << p.stage_ms_per_mbit;
    }
    out << ' ' << p.architecture << "\n";
  }
  return out.str();
}

Platform load_platform(const std::string& path) {
  std::ifstream in(path);
  HPRS_REQUIRE(in.good(), "cannot open platform file: " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  return parse_platform(buf.str());
}

void save_platform(const Platform& platform, const std::string& path) {
  std::ofstream out(path);
  HPRS_REQUIRE(out.good(), "cannot open for writing: " + path);
  out << format_platform(platform);
  HPRS_REQUIRE(out.good(), "failed writing " + path);
}

}  // namespace hprs::simnet
