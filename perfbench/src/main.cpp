// One workload input per process: set-up, the measured phase, and the
// output check, reported as one JSON line on stdout.
//
//   hprs_perfbench --workload <name> --seed <n> --mode reference|timed|traced
//                  [--input <k>] [--ref <path>] [--chrome <path>]
//                  [--scale full|tiny]
//
// reference  runs the input untimed in the engine's thread-per-rank oracle
//            mode and writes per-request digests to --ref.
// timed      times set-up and the measured phase, then compares every
//            request's record and output with --ref.
// traced     like timed, plus spans around every public call, the program's
//            counters, the per-layer probes, and a Chrome trace (--chrome).
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "harness.hpp"
#include "linalg/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int usage(const char* message) {
  std::fprintf(stderr, "hprs_perfbench: %s\n", message);
  return 2;
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage("expected --<flag> <value>");
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) return usage("every flag takes one value");
  const auto get = [&](const std::string& key, const std::string& fallback) {
    const auto it = args.find(key);
    return it == args.end() ? fallback : it->second;
  };

  const std::optional<Workload> workload = parse_workload(get("workload", ""));
  if (!workload) return usage("--workload must name a workload");
  const std::string mode = get("mode", "timed");
  if (mode != "reference" && mode != "timed" && mode != "traced") {
    return usage("--mode must be reference, timed or traced");
  }
  const std::string scale_name = get("scale", "full");
  if (scale_name != "full" && scale_name != "tiny") {
    return usage("--scale must be full or tiny");
  }
  const Scale scale = scale_name == "tiny" ? Scale::kTiny : Scale::kFull;
  std::uint64_t seed = 0;
  int input = 0;
  RunSettings settings;
  try {
    seed = std::stoull(get("seed", ""));
    input = std::stoi(get("input", "0"));
  } catch (const std::exception&) {
    return usage("--seed and --input take whole numbers");
  }
  const std::string ref_path = get("ref", "");
  if (ref_path.empty()) return usage("--ref is required");

  const std::vector<std::string> toggles = toggles_set();
  if (!toggles.empty()) {
    std::fprintf(stderr,
                 "hprs_perfbench: refusing to run with %s set; unset every "
                 "HPRS_* toggle\n",
                 toggles.front().c_str());
    return 3;
  }
  if (std::string(build_type()) != "Release") {
    std::fprintf(stderr,
                 "hprs_perfbench: refusing to time a %s build; configure "
                 "with -DCMAKE_BUILD_TYPE=Release\n",
                 build_type());
    return 3;
  }
  const bool traced = mode == "traced";
  settings.thread_per_rank = mode == "reference";
  settings.record_metrics = traced;

  SpanRecorder recorder;
  SpanRecorder* spans = traced ? &recorder : nullptr;
  const std::uint64_t seed_k = input_seed(seed, input);

  const double setup_start = wall_seconds();
  const Inputs inputs = [&] {
    ScopedSpan span(spans, "setup");
    return make_inputs(*workload, seed_k, scale, spans);
  }();
  const double setup_s = wall_seconds() - setup_start;

  if (traced) {
    hprs::obs::Metrics::instance().reset();
    hprs::obs::Metrics::instance().set_enabled(true);
  }
  const double cpu_start = cpu_seconds();
  const double host_start = wall_seconds();
  int measured_span = -1;
  Result result = [&] {
    if (spans != nullptr) measured_span = spans->begin("measured");
    Result r = run_workload(inputs, settings, spans);
    if (spans != nullptr) spans->end(measured_span);
    return r;
  }();
  const double host_s = wall_seconds() - host_start;
  const double host_cpu_s = cpu_seconds() - cpu_start;
  if (traced) hprs::obs::Metrics::instance().set_enabled(false);

  digest_result(inputs, result);
  check_invariants(inputs, result);
  if (mode == "reference") {
    if (!write_file(ref_path, format_reference(result))) {
      std::fprintf(stderr, "hprs_perfbench: cannot write %s\n",
                   ref_path.c_str());
      return 1;
    }
    std::printf("{\"mode\": \"reference\", \"items\": %zu, \"error\": %s}\n",
                result.items.size(), json_string(result.error).c_str());
    return 0;
  }

  std::ifstream ref_file(ref_path, std::ios::binary);
  std::stringstream ref_text;
  ref_text << ref_file.rdbuf();
  const std::optional<Reference> reference = parse_reference(ref_text.str());
  if (!ref_file || !reference) {
    std::fprintf(stderr, "hprs_perfbench: unreadable reference %s\n",
                 ref_path.c_str());
    return 1;
  }
  compare_with_reference(*reference, result);
  FailureTally tally;
  for (const Item& item : result.items) tally.add(item.outcome);

  std::ostringstream os;
  char buf[160];
  os << "{\"workload\": " << json_string(to_string(*workload))
     << ", \"mode\": " << json_string(mode) << ", \"seed\": " << seed
     << ", \"input\": " << input << ", \"input_seed\": " << seed_k;
  std::snprintf(buf, sizeof(buf),
                ", \"setup_s\": %.9g, \"host_s\": %.9g, \"host_cpu_s\": %.9g, "
                "\"peak_rss_mb\": %.9g",
                setup_s, host_s, host_cpu_s, peak_rss_mib());
  os << buf;
  os << ", \"attempted\": " << tally.attempted
     << ", \"refused\": " << tally.refused << ", \"failed\": " << tally.failed
     << ", \"degraded\": " << tally.degraded
     << ", \"aborted\": " << tally.aborted << ", \"wrong\": " << tally.wrong;
  std::snprintf(buf, sizeof(buf), ", \"virtual_makespan_s\": %.17g",
                result.virtual_makespan_s);
  os << buf << ", \"response_s\": [";
  for (std::size_t i = 0; i < result.response_s.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.17g", i == 0 ? "" : ", ",
                  result.response_s[i]);
    os << buf;
  }
  os << "], \"error\": " << json_string(result.error)
     << ", \"conditions\": {\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"executor_workers\": " << settings.executor_workers
     << ", \"kernel_threads\": " << hprs::linalg::kernel_threads()
     << ", \"build_type\": " << json_string(build_type()) << "}";

  if (traced) {
    const std::map<std::string, double> layers =
        layer_metrics(inputs, result, settings, recorder);
    // Residual: the measured span minus the public calls directly inside it.
    double children = 0.0;
    for (const SpanRecorder::Span& span : recorder.spans()) {
      if (span.parent == measured_span) children += span.end_s - span.begin_s;
    }
    os << ", \"layers\": {";
    bool first = true;
    for (const auto& [name, value] : layers) {
      std::snprintf(buf, sizeof(buf), "%.17g", value);
      os << (first ? "" : ", ") << json_string(name) << ": " << buf;
      first = false;
    }
    std::snprintf(buf, sizeof(buf), "}, \"calls_s\": %.9g, \"residual_s\": %.9g",
                  children, host_s - children);
    os << buf;
    const std::string chrome_path = get("chrome", "");
    if (!chrome_path.empty() &&
        !write_file(chrome_path, chrome_trace_json(result, recorder))) {
      std::fprintf(stderr, "hprs_perfbench: cannot write %s\n",
                   chrome_path.c_str());
      return 1;
    }
  }
  os << "}\n";
  std::fputs(os.str().c_str(), stdout);
  return 0;
}
