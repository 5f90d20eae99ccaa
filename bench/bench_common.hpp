// Shared scaffolding for the table-regeneration benches.
//
// Every bench binary reproduces one table or figure of the paper on the
// synthetic WTC scene.  The default scene is 96 x 96 pixels with a virtual
// replication factor that scales the timing model to the paper's full
// 2133 x 512 AVIRIS scene (about 1.09 M pixels); pass --rows/--cols/
// --replication to change it.  All numbers are deterministic in --seed.
#pragma once

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/table.hpp"
#include "core/runner.hpp"
#include "hsi/scene.hpp"
#include "linalg/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/run_summary.hpp"
#include "simnet/platform.hpp"

namespace hprs::bench {

struct BenchSetup {
  hsi::Scene scene;
  core::RunnerConfig config;
  bool csv = false;
  /// --summary <path>: write the canonical run summary (obs/run_summary.hpp)
  /// here; metrics collection is enabled for the bench when set.  Empty
  /// string disables both.
  std::string summary_path;
};

/// Whether a bench writes a run summary.  Only one that does accepts
/// --summary; for the others it is an unknown option, so asking them for a
/// summary fails instead of silently writing nothing.
enum class Summary { kNone, kWritten };

/// Parses the common options and generates the scene.  `default_rows/cols`
/// let the Thunderhead benches default to taller scenes (>= 256 rows).
inline BenchSetup make_setup(int argc, char** argv, Summary summary,
                             std::size_t default_rows = 96,
                             std::size_t default_cols = 96,
                             std::size_t default_replication = 119) {
  std::vector<std::string> options = {
      "rows",    "cols",  "bands",  "seed",      "replication",
      "targets", "classes", "iters", "radius", "threshold", "csv"};
  if (summary == Summary::kWritten) options.emplace_back("summary");
  const CliArgs args(argc, argv, options);
  hsi::SceneConfig scene_cfg;
  scene_cfg.rows = static_cast<std::size_t>(
      args.get_int("rows", static_cast<std::int64_t>(default_rows)));
  scene_cfg.cols = static_cast<std::size_t>(
      args.get_int("cols", static_cast<std::int64_t>(default_cols)));
  scene_cfg.bands = static_cast<std::size_t>(args.get_int("bands", 224));
  scene_cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 20010916));

  BenchSetup setup{hsi::generate_wtc_scene(scene_cfg), {}, false, {}};
  auto& cfg = setup.config;
  cfg.targets = static_cast<std::size_t>(args.get_int("targets", 18));
  // c is set to the number of spectrally distinguishable constituents of
  // the synthetic map (10 materials + fires), mirroring how the paper set
  // c = 7 from the class count of its USGS map.
  cfg.classes = static_cast<std::size_t>(args.get_int("classes", 14));
  cfg.morph_iterations = static_cast<std::size_t>(args.get_int("iters", 5));
  cfg.kernel_radius = static_cast<std::size_t>(args.get_int("radius", 2));
  cfg.sad_threshold = args.get_double("threshold", 0.06);
  cfg.replication = static_cast<std::size_t>(args.get_int(
      "replication", static_cast<std::int64_t>(default_replication)));
  setup.csv = args.get_bool("csv", false);
  setup.summary_path = args.get("summary", "");
  if (!setup.summary_path.empty()) {
    // Collect metrics for the whole bench process; write_summary embeds the
    // stable subset next to the per-run report fields.
    obs::Metrics::instance().reset();
    obs::Metrics::instance().set_enabled(true);
  }
  return setup;
}

/// Stable summary key prefix for one sweep cell, e.g.
/// "ATDCA.hetero.fully-heterogeneous" (platform names are hyphenated and
/// never need escaping).
inline std::string summary_prefix(core::Algorithm alg,
                                  core::PartitionPolicy policy,
                                  const std::string& network) {
  const char* pol =
      policy == core::PartitionPolicy::kHeterogeneous ? "hetero" : "homo";
  return std::string(core::to_string(alg)) + "." + pol + "." + network;
}

/// Writes `summary` to `path` (no-op when the path is empty) after adding
/// the process-wide stable metrics under "bench.metrics." and the recording
/// conditions under "_metadata.": the host's hardware thread count, its
/// 1-minute load average (the first field of /proc/loadavg; the key is
/// omitted where that file cannot be read) and the effective
/// HPRS_KERNEL_THREADS setting.  report_diff never compares the
/// "_metadata." keys.  Returns false -- after printing a diagnostic -- on
/// I/O failure, so mains can `return write_summary(...) ? 0 : 1`.
inline bool write_summary(const std::string& path, obs::RunSummary& summary) {
  if (path.empty()) return true;
  add_metrics(summary, "bench", obs::Metrics::instance().snapshot());
  summary.set_count("_metadata.hw_threads",
                    std::thread::hardware_concurrency());
  std::ifstream loadavg("/proc/loadavg");
  double load_1m = 0.0;
  if (loadavg >> load_1m) summary.set_number("_metadata.loadavg_1m", load_1m);
  summary.set_count("_metadata.kernel_threads", linalg::kernel_threads());
  if (!summary.write(path)) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return false;
  }
  return true;
}

/// The four 16-node networks of Section 3.1, in the paper's column order.
inline std::vector<simnet::Platform> paper_networks() {
  return {simnet::fully_heterogeneous(), simnet::fully_homogeneous(),
          simnet::partially_heterogeneous(), simnet::partially_homogeneous()};
}

/// Thunderhead processor counts of Table 8.
inline const std::vector<std::size_t>& thunderhead_cpus() {
  static const std::vector<std::size_t> cpus = {1,  4,   16,  36, 64,
                                                100, 144, 196, 256};
  return cpus;
}

inline const std::vector<core::Algorithm>& all_algorithms() {
  static const std::vector<core::Algorithm> algs = {
      core::Algorithm::kAtdca, core::Algorithm::kUfcls, core::Algorithm::kPct,
      core::Algorithm::kMorph};
  return algs;
}

/// One cell of the Tables 5-7 sweep: an algorithm/policy pair on one of the
/// four experimental networks.
struct SweepRecord {
  core::Algorithm algorithm;
  core::PartitionPolicy policy;
  std::string network;
  vmpi::RunReport report;
};

/// Runs every {algorithm} x {hetero, homo} x {network} combination of the
/// paper's Tables 5-7 and returns the reports in display order (algorithm
/// major, hetero before homo, networks in paper column order).
inline std::vector<SweepRecord> network_sweep(const BenchSetup& setup) {
  std::vector<SweepRecord> records;
  const auto networks = paper_networks();
  for (const auto alg : all_algorithms()) {
    for (const auto policy : {core::PartitionPolicy::kHeterogeneous,
                              core::PartitionPolicy::kHomogeneous}) {
      for (const auto& net : networks) {
        auto cfg = setup.config;
        cfg.algorithm = alg;
        cfg.policy = policy;
        SweepRecord rec{alg, policy, net.name(),
                        core::run_algorithm(net, setup.scene.cube, cfg)
                            .report};
        records.push_back(std::move(rec));
      }
    }
  }
  return records;
}

/// Peels "--<name> <value>" out of argv before the setup parser (or
/// benchmark::Initialize, which aborts on unrecognized flags) sees it.
/// Returns the value, or an empty string when the flag is absent.
inline std::string take_string_flag(int& argc, char** argv,
                                    const std::string& name) {
  std::string value;
  int out = 0;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--" + name && i + 1 < argc) {
      value = argv[++i];
      continue;
    }
    argv[out++] = argv[i];
  }
  argc = out;
  return value;
}

/// Peels a bare "--<name>" switch out of argv; true when it was present.
inline bool take_bool_flag(int& argc, char** argv, const std::string& name) {
  bool value = false;
  int out = 0;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--" + name) {
      value = true;
      continue;
    }
    argv[out++] = argv[i];
  }
  argc = out;
  return value;
}

inline void emit(const TextTable& table, bool csv, const char* title) {
  std::printf("%s\n", title);
  if (csv) {
    std::printf("%s", table.to_csv().c_str());
  } else {
    std::printf("%s", table.to_string().c_str());
  }
  std::fflush(stdout);
}

}  // namespace hprs::bench
