// Shared scaffolding for the table-regeneration benches.
//
// Every bench binary reproduces one table or figure of the paper on the
// synthetic WTC scene.  The default scene is 96 x 96 pixels with a virtual
// replication factor that scales the timing model to the paper's full
// 2133 x 512 AVIRIS scene (about 1.09 M pixels); pass --rows/--cols/
// --replication to change it.  All numbers are deterministic in --seed.
#pragma once

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
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

inline const std::vector<std::string>& common_options() {
  static const std::vector<std::string> opts = {
      "rows", "cols",   "bands",  "seed",       "replication", "targets",
      "classes", "iters", "radius", "threshold", "csv", "summary",
  };
  return opts;
}

/// Parses the common options and generates the scene.  `default_rows/cols`
/// let the Thunderhead benches default to taller scenes (>= 256 rows).
inline BenchSetup make_setup(int argc, char** argv,
                             std::size_t default_rows = 96,
                             std::size_t default_cols = 96,
                             std::size_t default_replication = 119) {
  const CliArgs args(argc, argv, common_options());
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

/// Appends the process-wide stable metrics under "metrics." and writes the
/// summary to setup.summary_path (no-op when the path is empty).  Returns
/// false -- after printing a diagnostic -- on I/O failure, so mains can
/// `return write_summary(...) ? 0 : 1`.
inline bool write_summary(const BenchSetup& setup, obs::RunSummary& summary) {
  if (setup.summary_path.empty()) return true;
  add_metrics(summary, "bench", obs::Metrics::instance().snapshot());
  if (!summary.write(setup.summary_path)) {
    std::fprintf(stderr, "failed to write %s\n", setup.summary_path.c_str());
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

/// Writes the shared "_metadata" header line every committed BENCH_*.json
/// artifact carries: the host's hardware thread count, the effective
/// HPRS_KERNEL_THREADS setting, and an oversubscription warning flag
/// (timings measured with more kernel threads than hardware threads are
/// not comparable to the committed artifact).  scripts/bench_smoke.sh
/// structurally requires this header in every artifact.
inline void write_metadata_entry(std::FILE* f, bool trailing_comma,
                                 std::size_t hw_threads,
                                 std::size_t kernel_threads) {
  std::fprintf(f,
               "  \"_metadata\": {\"hw_threads\": %zu, \"kernel_threads\": "
               "%zu, \"oversubscribed\": %s}%s\n",
               hw_threads, kernel_threads,
               kernel_threads > hw_threads ? "true" : "false",
               trailing_comma ? "," : "");
}

inline void write_metadata_entry(std::FILE* f, bool trailing_comma) {
  write_metadata_entry(
      f, trailing_comma,
      static_cast<std::size_t>(std::thread::hardware_concurrency()),
      linalg::kernel_threads());
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

/// One row of the machine-readable kernel-bench summary.  bench_kernels
/// collects one record per benchmark and serializes them with
/// write_kernel_json (--json <path>, conventionally BENCH_kernels.json) so
/// speedup tracking does not have to scrape console output.
struct KernelRecord {
  std::string name;
  double ns_per_op = 0.0;
  double bytes_per_op = 0.0;
};

/// Writes the records as a flat JSON object keyed by benchmark name, headed
/// by a "_metadata" entry recording the host's hardware thread count and the
/// effective kernel-thread setting the numbers were measured under (timings
/// from an oversubscribed run are not comparable to the committed artifact).
/// No third-party JSON dependency: names are benchmark identifiers (no
/// characters needing escapes) and values are plain numbers.
inline bool write_kernel_json(const std::string& path,
                              const std::vector<KernelRecord>& records,
                              std::size_t hw_threads,
                              std::size_t kernel_threads) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n");
  write_metadata_entry(f, !records.empty(), hw_threads, kernel_threads);
  for (std::size_t i = 0; i < records.size(); ++i) {
    std::fprintf(f, "  \"%s\": {\"ns_per_op\": %.3f, \"bytes_per_op\": %.1f",
                 records[i].name.c_str(), records[i].ns_per_op,
                 records[i].bytes_per_op);
    std::fprintf(f, "}%s\n", i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
  return true;
}

/// One cell of the streamed-tiling summary: one algorithm on one
/// accelerated gang (simnet::accelerated_now), monolithic staging against
/// the per-tile streamed driver (core::RunnerConfig::tile_stream).
/// bench_table6_breakdown collects one record per cell and serializes them
/// with write_stream_json (--json <path>, conventionally BENCH_stream.json)
/// so comm/compute-overlap regressions are machine-checkable.
struct StreamRecord {
  std::string algorithm;
  std::size_t cpus = 0;
  std::size_t accels = 0;
  double monolithic_s = 0.0;
  double streamed_s = 0.0;

  /// Percentage of the monolithic makespan saved by streaming.
  [[nodiscard]] double win_pct() const {
    return monolithic_s > 0.0 ? 100.0 * (1.0 - streamed_s / monolithic_s)
                              : 0.0;
  }
};

/// Writes the records as a flat JSON object keyed "<ALG>_cpu<n>_acc<m>".
/// Same no-dependency format rationale as write_kernel_json.
inline bool write_stream_json(const std::string& path,
                              const std::vector<StreamRecord>& records) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n");
  write_metadata_entry(f, !records.empty());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    std::fprintf(f,
                 "  \"%s_cpu%zu_acc%zu\": {\"monolithic_s\": %.6f, "
                 "\"streamed_s\": %.6f, \"win_pct\": %.3f}%s\n",
                 r.algorithm.c_str(), r.cpus, r.accels, r.monolithic_s,
                 r.streamed_s, r.win_pct(), i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
  return true;
}

/// One cell of the engine host-runtime summary: how long the host took to
/// simulate one (algorithm, processor count) Thunderhead run, next to the
/// virtual time the run reported.  bench_table8_thunderhead collects one
/// record per cell and serializes them with write_engine_json
/// (--json <path>, conventionally BENCH_engine.json) so engine-scaling
/// regressions are machine-checkable.
struct EngineRecord {
  std::string algorithm;
  std::size_t cpus = 0;
  double host_seconds = 0.0;
  double virtual_seconds = 0.0;
};

/// Writes the records as a flat JSON object keyed "<ALG>_p<cpus>".  Same
/// no-dependency format rationale as write_kernel_json.
inline bool write_engine_json(const std::string& path,
                              const std::vector<EngineRecord>& records) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n");
  write_metadata_entry(f, !records.empty());
  for (std::size_t i = 0; i < records.size(); ++i) {
    std::fprintf(
        f, "  \"%s_p%zu\": {\"host_seconds\": %.4f, \"virtual_seconds\": %.3f}%s\n",
        records[i].algorithm.c_str(), records[i].cpus,
        records[i].host_seconds, records[i].virtual_seconds,
        i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
  return true;
}

/// One cell of the fault-recovery summary: how one {algorithm, network,
/// fault scenario} run survived its injected crashes.  bench_fault_recovery
/// collects one record per cell and serializes them with write_fault_json
/// (--json <path>, conventionally BENCH_fault.json) so recovery-overhead
/// regressions are machine-checkable.
struct FaultRecord {
  std::string algorithm;
  std::string network;
  std::string scenario;
  double virtual_seconds = 0.0;
  vmpi::RecoveryStats recovery;
  /// Whether the run's outputs (targets/labels) matched the fault-free
  /// reference bit for bit -- the fault-tolerance contract.
  bool outputs_match = false;
};

/// Writes the records as a flat JSON object keyed
/// "<ALG>_<network>_<scenario>".  Same no-dependency format rationale as
/// write_kernel_json.
inline bool write_fault_json(const std::string& path,
                             const std::vector<FaultRecord>& records) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n");
  write_metadata_entry(f, !records.empty());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    std::fprintf(
        f,
        "  \"%s_%s_%s\": {\"virtual_seconds\": %.3f, \"detection_s\": %.3f, "
        "\"redistribution_s\": %.3f, \"recomputed_s\": %.3f, "
        "\"recomputed_mflops\": %.3f, \"crashes\": %d, \"detections\": %d, "
        "\"outputs_match\": %s}%s\n",
        r.algorithm.c_str(), r.network.c_str(), r.scenario.c_str(),
        r.virtual_seconds, r.recovery.detection_s, r.recovery.redistribution_s,
        r.recovery.recomputed_s, r.recovery.recomputed_megaflops(),
        r.recovery.crashes, r.recovery.detections,
        r.outputs_match ? "true" : "false",
        i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
  return true;
}

/// One cell of the scheduler-throughput summary: one {network, policy}
/// run of a fixed job stream through sched::run_schedule.
/// bench_sched_throughput collects one record per cell and serializes them
/// with write_sched_json (--json <path>, conventionally BENCH_sched.json)
/// so placement-quality regressions are machine-checkable.
struct SchedRecord {
  std::string network;
  std::string policy;
  double makespan_s = 0.0;
  double utilization = 0.0;
  double wait_p50_s = 0.0;
  double wait_p90_s = 0.0;
  double wait_max_s = 0.0;
  std::size_t completed = 0;
  std::size_t rejected = 0;
};

/// Writes the records as a flat JSON object keyed "<network>_<policy>".
/// Same no-dependency format rationale as write_kernel_json.
inline bool write_sched_json(const std::string& path,
                             const std::vector<SchedRecord>& records) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n");
  write_metadata_entry(f, !records.empty());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    std::fprintf(
        f,
        "  \"%s_%s\": {\"makespan_s\": %.6f, \"utilization\": %.6f, "
        "\"wait_p50_s\": %.6f, \"wait_p90_s\": %.6f, \"wait_max_s\": %.6f, "
        "\"completed\": %zu, \"rejected\": %zu}%s\n",
        r.network.c_str(), r.policy.c_str(), r.makespan_s, r.utilization,
        r.wait_p50_s, r.wait_p90_s, r.wait_max_s, r.completed, r.rejected,
        i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
  return true;
}

/// One cell of the serving bench: one {scenario, executor-mode} run of a
/// generated traffic trace through serve::run_service.
/// bench_serve_traffic collects one record per cell and serializes them
/// with write_serve_json (--json <path>, conventionally BENCH_serve.json)
/// so serving-quality regressions (SLA drift across executor modes,
/// batching losing its win) are machine-checkable.
struct ServeRecord {
  std::string scenario;
  std::string mode;
  double makespan_s = 0.0;
  double utilization = 0.0;
  double wait_p50_s = 0.0;
  double wait_p95_s = 0.0;
  double slowdown_p95 = 0.0;
  std::size_t completed = 0;
  std::size_t rejected = 0;
  std::size_t riders = 0;
};

/// Writes the records as a flat JSON object keyed "<scenario>_<mode>".
/// Same no-dependency format rationale as write_kernel_json.
inline bool write_serve_json(const std::string& path,
                             const std::vector<ServeRecord>& records) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n");
  write_metadata_entry(f, !records.empty());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    std::fprintf(
        f,
        "  \"%s_%s\": {\"makespan_s\": %.6f, \"utilization\": %.6f, "
        "\"wait_p50_s\": %.6f, \"wait_p95_s\": %.6f, \"slowdown_p95\": "
        "%.6f, \"completed\": %zu, \"rejected\": %zu, \"riders\": %zu}%s\n",
        r.scenario.c_str(), r.mode.c_str(), r.makespan_s, r.utilization,
        r.wait_p50_s, r.wait_p95_s, r.slowdown_p95, r.completed, r.rejected,
        r.riders, i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
  return true;
}

/// One scenario of the resilience bench: a fixed single-job stream run
/// through the resilient scheduler either fault-free or under a leader
/// crash, with checkpoint resume on or off.  bench_sched_resilience
/// serializes one record per scenario with write_resilience_json
/// (--json <path>, conventionally BENCH_resilience.json) so the
/// recovery-cost contract (checkpoint resume beats cold restart, outputs
/// bit-identical) is machine-checkable.
struct ResilienceRecord {
  std::string scenario;
  double makespan_s = 0.0;
  double recovery_overhead_s = 0.0;
  std::size_t attempts = 0;
  int checkpoints = 0;
  int resumed_seq = 0;
  bool outputs_match = false;
};

/// Writes the records as a flat JSON object keyed by scenario name.
/// Same no-dependency format rationale as write_kernel_json.
inline bool write_resilience_json(const std::string& path,
                                  const std::vector<ResilienceRecord>& records) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n");
  write_metadata_entry(f, !records.empty());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    std::fprintf(
        f,
        "  \"%s\": {\"makespan_s\": %.6f, \"recovery_overhead_s\": %.6f, "
        "\"attempts\": %zu, \"checkpoints\": %d, \"resumed_seq\": %d, "
        "\"outputs_match\": %s}%s\n",
        r.scenario.c_str(), r.makespan_s, r.recovery_overhead_s, r.attempts,
        r.checkpoints, r.resumed_seq, r.outputs_match ? "true" : "false",
        i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
  return true;
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

/// Peels "--json <path>" (the machine-readable artifact twin).
inline std::string take_json_flag(int& argc, char** argv) {
  return take_string_flag(argc, argv, "json");
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
