// report_diff: compare two RunSummary JSON documents (obs/run_summary.hpp)
// under the golden-gate policy of obs/report_diff.hpp.
//
//   report_diff <golden.json> <actual.json>
//       [--host-rel-tol N] [--host-abs-tol N] [--timeline]
//
// Exit status: 0 when the summaries agree, 1 on any mismatch (every
// mismatching key is printed), 2 on usage (a bad option included) or
// unreadable or unparsable input.
// This is the decision procedure of the CI bench-smoke job: goldens live in
// bench/golden/, default-size artifacts in the root BENCH_*.json, and both
// are regenerated with scripts/bench_smoke.sh --update.
//
// --timeline treats both documents as counter-plane snapshot timelines
// (obs/snapshot.hpp): same key-by-key policy, but on mismatch the earliest
// diverging sample is localized in virtual time -- the counter that
// drifted mid-run, not just that something differed.
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "common/cli.hpp"
#include "obs/report_diff.hpp"

namespace {

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

bool load_summary(const std::string& path,
                  std::map<std::string, std::string>& out) {
  std::string text;
  if (!read_file(path, text)) {
    std::fprintf(stderr, "report_diff: cannot read %s\n", path.c_str());
    return false;
  }
  std::string error;
  if (!hprs::obs::parse_flat_json(text, out, error)) {
    std::fprintf(stderr, "report_diff: %s: %s\n", path.c_str(),
                 error.c_str());
    return false;
  }
  return true;
}

int run(int argc, char** argv) {
  const hprs::CliArgs args(argc, argv,
                           {"host-rel-tol", "host-abs-tol", "timeline"});
  if (args.positional().size() != 2) {
    std::fprintf(stderr,
                 "usage: report_diff <golden.json> <actual.json> "
                 "[--host-rel-tol N] [--host-abs-tol N] [--timeline]\n");
    return 2;
  }
  const std::string& golden_path = args.positional()[0];
  const std::string& actual_path = args.positional()[1];

  std::map<std::string, std::string> golden;
  std::map<std::string, std::string> actual;
  if (!load_summary(golden_path, golden) ||
      !load_summary(actual_path, actual)) {
    return 2;
  }

  hprs::obs::DiffOptions options;
  options.host_rel_tol = args.get_double("host-rel-tol", options.host_rel_tol);
  options.host_abs_tol = args.get_double("host-abs-tol", options.host_abs_tol);

  if (args.get_bool("timeline", false)) {
    const auto result = hprs::obs::diff_timelines(golden, actual, options);
    if (result.ok()) {
      std::printf("report_diff: timeline OK (%zu keys compared)\n",
                  result.diff.keys_compared);
      return 0;
    }
    std::fprintf(stderr, "report_diff: %zu timeline mismatch(es) vs %s\n",
                 result.diff.mismatches.size(), golden_path.c_str());
    std::fprintf(stderr, "  %s\n", result.first_divergence.c_str());
    for (const auto& m : result.diff.mismatches) {
      std::fprintf(stderr, "  %s: golden=%s actual=%s (%s)\n", m.key.c_str(),
                   m.golden.c_str(), m.actual.c_str(), m.reason.c_str());
    }
    return 1;
  }

  const auto result = hprs::obs::diff_summaries(golden, actual, options);
  if (result.ok()) {
    std::printf("report_diff: OK (%zu keys compared)\n", result.keys_compared);
    return 0;
  }
  std::fprintf(stderr, "report_diff: %zu mismatch(es) vs %s\n",
               result.mismatches.size(), golden_path.c_str());
  for (const auto& m : result.mismatches) {
    std::fprintf(stderr, "  %s: golden=%s actual=%s (%s)\n", m.key.c_str(),
                 m.golden.c_str(), m.actual.c_str(), m.reason.c_str());
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  return hprs::run_main(argc, argv, run, 2);
}
