// Multi-job scheduler throughput (paper Sect. 6 outlook: scheduling many
// concurrent analyses on a shared network of workstations).
//
// A fixed mixed stream of --jobs analysis jobs (all five SPMD schedules,
// round-robin, staggered arrivals, varying gang widths) is pushed through
// sched::run_schedule under each placement policy (fifo, sjf, hetero) on
// the four 16-node NOW platforms of Section 3.1 plus a --cpus-node
// Thunderhead partition.  For every {network, policy} cell the bench
// reports the stream makespan, the cluster-wide busy fraction, and the
// queue-wait percentiles (nearest-rank p50 / p90 / max).
//
// Shape to hold: on the heterogeneous-processor networks the
// heterogeneity-aware best-fit beats FIFO on both makespan and cluster
// utilization (it places gangs on the fastest free processors and
// backfills around the head-of-line job); on the fully homogeneous network
// the policies nearly coincide.  The fully heterogeneous win holds at the
// smoke size (--rows 48 --cols 48 --replication 8) only: at the default
// size hetero loses to FIFO there and the binary exits 1.  All numbers are
// virtual time, so every cell is bit-identical across runs and executor
// modes; the smoke-size --summary is gated as bench/golden/sched.json.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/snapshot.hpp"
#include "sched/scheduler.hpp"
#include "serve/service.hpp"

namespace {

using namespace hprs;

/// Deterministic mixed stream: algorithms round-robin, arrivals every
/// `gap_s`, gang widths cycling {2, 3, 4, 6} (clipped to the pool).
std::vector<sched::JobSpec> make_stream(std::size_t jobs, int pool,
                                        const bench::BenchSetup& setup,
                                        double gap_s) {
  constexpr core::Algorithm kCycle[] = {
      core::Algorithm::kAtdca, core::Algorithm::kPct, core::Algorithm::kPpi,
      core::Algorithm::kUfcls, core::Algorithm::kMorph};
  constexpr int kWidths[] = {2, 3, 4, 6};
  std::vector<sched::JobSpec> stream;
  for (std::size_t k = 0; k < jobs; ++k) {
    sched::JobSpec spec;
    spec.id = k + 1;
    spec.algorithm = kCycle[k % 5];
    spec.arrival_s = gap_s * static_cast<double>(k);
    spec.ranks = std::min(pool, kWidths[k % 4]);
    spec.targets = std::min<std::size_t>(setup.config.targets, 8);
    spec.classes = std::min<std::size_t>(setup.config.classes, 5);
    spec.morph_iterations =
        std::min<std::size_t>(setup.config.morph_iterations, 2);
    spec.kernel_radius = std::min<std::size_t>(setup.config.kernel_radius, 1);
    spec.skewers = 64;
    spec.replication = setup.config.replication;
    stream.push_back(spec);
  }
  return stream;
}

/// Counter-plane cell: one fully-heterogeneous hetero-policy run with the
/// snapshot service on.  Kept off the sweep path so the sweep's summary
/// stays bit-identical to releases without this cell; the timeline it
/// writes is the golden gated by scripts/bench_smoke.sh --only
/// counter-plane.
int run_snapshot_cell(const bench::BenchSetup& setup, std::size_t jobs,
                      double gap_s, double interval_s,
                      const std::string& snap_path,
                      const std::string& trace_path) {
  const auto networks = bench::paper_networks();
  const auto net = std::find_if(
      networks.begin(), networks.end(),
      [](const simnet::Platform& n) {
        return n.name() == "fully-heterogeneous";
      });
  if (net == networks.end()) {
    std::fprintf(stderr, "bench_sched_throughput: no fully-heterogeneous "
                         "network in paper_networks()\n");
    return 1;
  }
  const auto stream = make_stream(
      jobs, static_cast<int>(net->size()) - 1, setup, gap_s);
  sched::SchedulerConfig config;
  config.policy = sched::Policy::kHeteroBestFit;
  vmpi::Options options;
  options.snapshot.enabled = true;
  options.snapshot.interval_s = interval_s;
  options.enable_trace = !trace_path.empty();
  const auto result =
      sched::run_schedule(*net, setup.scene.cube, stream, config, options);

  if (!snap_path.empty()) {
    if (!write_file(snap_path,
                    obs::snapshot_timeline_json(result.report.snapshots))) {
      std::fprintf(stderr, "failed to write %s\n", snap_path.c_str());
      return 1;
    }
    std::printf("snapshot timeline: %s (%zu samples)\n", snap_path.c_str(),
                result.report.snapshots.size());
  }
  if (!trace_path.empty()) {
    const std::string json = obs::chrome_trace_json(
        result.report, sched::job_track_groups(result), {});
    if (!write_file(trace_path, json)) {
      std::fprintf(stderr, "failed to write %s\n", trace_path.c_str());
      return 1;
    }
    std::printf("chrome trace: %s\n", trace_path.c_str());
  }
  return 0;
}

}  // namespace

/// Peels "--<name> <value>" out of argv (make_setup rejects flags it does
/// not know); returns `fallback` when absent.
double take_double_flag(int& argc, char** argv, const std::string& name,
                        double fallback) {
  double value = fallback;
  int out = 0;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--" + name && i + 1 < argc) {
      value = std::stod(argv[++i]);
      continue;
    }
    argv[out++] = argv[i];
  }
  argc = out;
  return value;
}

namespace {

int run(int argc, char** argv) {
  const std::string snap_path =
      bench::take_string_flag(argc, argv, "snapshots");
  const std::string trace_path = bench::take_string_flag(argc, argv, "trace");
  const bool snapshots_only = bench::take_bool_flag(argc, argv,
                                                    "snapshots-only");
  const double snap_interval_s =
      take_double_flag(argc, argv, "snapshot-interval", 0.5);
  const auto jobs = static_cast<std::size_t>(
      take_double_flag(argc, argv, "jobs", 32));
  const double gap_s = take_double_flag(argc, argv, "gap", 0.2);
  const auto setup = bench::make_setup(argc, argv, bench::Summary::kWritten);

  if (!snap_path.empty() || !trace_path.empty()) {
    const int cell_status = run_snapshot_cell(setup, jobs, gap_s,
                                              snap_interval_s, snap_path,
                                              trace_path);
    if (cell_status != 0 || snapshots_only) return cell_status;
  } else if (snapshots_only) {
    std::fprintf(stderr,
                 "bench_sched_throughput: --snapshots-only needs "
                 "--snapshots <path> or --trace <path>\n");
    return 2;
  }

  std::vector<simnet::Platform> networks = bench::paper_networks();
  networks.push_back(simnet::thunderhead(64));
  // Mixed CPU + accelerator NOW: 12 plain workstations plus 4 accelerated
  // nodes on the highest ranks, where FIFO's lowest-free-ranks placement
  // never looks unless the pool is drained.
  networks.push_back(simnet::accelerated_now(12, 4));

  obs::RunSummary summary;
  // Makespan and utilization per "<network>.<policy>" cell, for the
  // placement-quality contracts below.
  struct Cell {
    double makespan_s = 0.0;
    double utilization = 0.0;
  };
  std::map<std::string, Cell> cells;
  TextTable table({"Network", "Policy", "Makespan (s)", "Utilization",
                   "Wait p50 (s)", "Wait p90 (s)", "Wait max (s)", "Done"});
  for (const auto& net : networks) {
    const auto stream = make_stream(
        jobs, static_cast<int>(net.size()) - 1, setup, gap_s);
    for (const auto policy :
         {sched::Policy::kFifo, sched::Policy::kSjf,
          sched::Policy::kHeteroBestFit}) {
      sched::SchedulerConfig config;
      config.policy = policy;
      const auto result =
          sched::run_schedule(net, setup.scene.cube, stream, config);

      if (std::getenv("SCHED_DEBUG") != nullptr) {
        for (const auto& record : result.records) {
          std::printf("DBG %s %s job %llu est %.3f actual %.3f width %zu\n",
                      net.name().c_str(), sched::to_string(policy),
                      static_cast<unsigned long long>(record.id),
                      record.est_seconds, record.makespan_s(),
                      record.members.size());
        }
      }
      std::vector<double> waits;
      for (const auto& record : result.records) {
        if (record.completed()) waits.push_back(record.queue_wait_s());
      }
      const double wait_p50_s = serve::percentile(waits, 0.50);
      const double wait_p90_s = serve::percentile(waits, 0.90);
      const double wait_max_s = serve::percentile(waits, 1.00);
      table.add_row({net.name(), sched::to_string(policy),
                     TextTable::num(result.makespan_s, 3),
                     TextTable::num(result.utilization, 3),
                     TextTable::num(wait_p50_s, 3),
                     TextTable::num(wait_p90_s, 3),
                     TextTable::num(wait_max_s, 3),
                     std::to_string(result.completed()) + "/" +
                         std::to_string(stream.size())});

      const std::string cell =
          net.name() + "." + sched::to_string(policy);
      cells[cell] = Cell{result.makespan_s, result.utilization};
      const std::string prefix = "sched." + cell;
      summary.set_number(prefix + ".makespan_s", result.makespan_s);
      summary.set_number(prefix + ".utilization", result.utilization);
      summary.set_number(prefix + ".wait_p50_s", wait_p50_s);
      summary.set_number(prefix + ".wait_p90_s", wait_p90_s);
      summary.set_number(prefix + ".wait_max_s", wait_max_s);
      summary.set_count(prefix + ".completed", result.completed());
      summary.set_count(prefix + ".rejected", result.rejected());
    }
  }

  bench::emit(table, setup.csv,
              "Scheduler throughput. Mixed job stream per network under "
              "each placement policy (virtual time).");

  // The placement-quality contract: on the fully heterogeneous NOW the
  // heterogeneity-aware policy must beat FIFO on makespan and utilization.
  const Cell fifo = cells["fully-heterogeneous.fifo"];
  const Cell hetero = cells["fully-heterogeneous.hetero"];
  std::printf(
      "fully-heterogeneous: hetero/fifo makespan %.3f/%.3f s (%.2fx), "
      "utilization %.3f/%.3f\n",
      hetero.makespan_s, fifo.makespan_s,
      hetero.makespan_s > 0.0 ? fifo.makespan_s / hetero.makespan_s : 0.0,
      hetero.utilization, fifo.utilization);
  int status = 0;
  if (hetero.makespan_s >= fifo.makespan_s ||
      hetero.utilization <= fifo.utilization) {
    std::fprintf(stderr,
                 "bench_sched_throughput: hetero policy failed to beat FIFO "
                 "on the fully heterogeneous NOW\n");
    status = 1;
  }

  // Same contract on the mixed CPU + accelerator NOW: the cost-aware
  // policy must find the high-rank accelerated nodes FIFO ignores.
  const Cell accel_fifo = cells["accelerated-now-12c4a.fifo"];
  const Cell accel_hetero = cells["accelerated-now-12c4a.hetero"];
  std::printf(
      "accelerated-now: hetero/fifo makespan %.3f/%.3f s (%.2fx)\n",
      accel_hetero.makespan_s, accel_fifo.makespan_s,
      accel_hetero.makespan_s > 0.0
          ? accel_fifo.makespan_s / accel_hetero.makespan_s
          : 0.0);
  if (accel_hetero.makespan_s >= accel_fifo.makespan_s) {
    std::fprintf(stderr,
                 "bench_sched_throughput: hetero policy failed to beat FIFO "
                 "on the mixed CPU+accelerator NOW\n");
    status = 1;
  }

  if (!bench::write_summary(setup.summary_path, summary)) return 1;
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  return hprs::run_main(argc, argv, run, 1);
}
