// trace_run: run one algorithm with virtual-time tracing and the host-time
// profiler enabled, and export the combined timeline as Chrome trace-event
// JSON (open in chrome://tracing or https://ui.perfetto.dev).
//
//   trace_run --alg ATDCA --network fully-heterogeneous --out trace.json
//   trace_run --alg MORPH --network thunderhead --cpus 64 --gantt
//   trace_run --alg PCT --network accelerated-now --cpus 2 --accels 2
//             --stream --out overlap.json
//   trace_run --sched --jobs 6 --policy hetero --out sched.json
//
// --stream turns on the per-tile streamed driver (RunnerConfig::tile_stream);
// with tracing on, each rank's "stage pipe" lane then shows the tile copies
// overlapping its compute lane -- the comm/compute-overlap picture, best
// viewed on an accelerated-now gang.
//
// --out writes the Chrome trace; --csv writes the raw per-rank interval CSV
// (vmpi/trace.hpp); --gantt prints the ASCII Gantt chart to stdout.  The
// virtual timeline is deterministic in the scene/seed; the host timeline
// (pid 1) varies run to run by construction.
//
// --sched traces a multi-job schedule instead of one solo run: a mixed
// round-robin stream of --jobs analyses goes through sched::run_schedule
// and every job gets its own named track group ("job:<id>/<ALG>") in the
// exported trace.
//
// --resilient runs the schedule under the checkpoint/retry control plane
// (sched/resilience.hpp): each dispatch attempt becomes its own track
// group ("job:<id>/<ALG>#<attempt>") with "checkpoint" and "restart"
// instants on the job lane.  --checkpoint <s> sets the commit cadence and
// --crash <rank>@<t>[,<rank>@<t>...] injects fail-stop rank crashes, e.g.
//
//   trace_run --sched --resilient --checkpoint 0.01 --crash 2@0.05
#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "core/runner.hpp"
#include "hsi/scene.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/host_profile.hpp"
#include "obs/metrics.hpp"
#include "sched/scheduler.hpp"
#include "simnet/platform.hpp"
#include "tool_common.hpp"
#include "vmpi/trace.hpp"

using namespace hprs;

namespace {

int run(int argc, char** argv) {
  const CliArgs args(argc, argv,
                     {"alg", "network", "cpus", "accels", "rows", "cols",
                      "bands", "seed", "replication", "targets", "classes",
                      "iters", "radius", "homogeneous", "stream", "out",
                      "csv", "gantt", "sched", "jobs", "policy", "resilient",
                      "checkpoint", "crash"});

  const core::Algorithm alg = core::parse_algorithm(args.get("alg", "ATDCA"));
  simnet::Platform platform = simnet::fully_heterogeneous();
  if (!tools::make_platform(args.get("network", "fully-heterogeneous"),
                     static_cast<std::size_t>(args.get_int("cpus", 16)),
                     static_cast<std::size_t>(args.get_int("accels", 2)),
                     platform)) {
    std::fprintf(stderr,
                 "trace_run: unknown --network (want fully-heterogeneous, "
                 "fully-homogeneous, partially-heterogeneous, "
                 "partially-homogeneous, thunderhead, accelerated-now)\n");
    return 2;
  }

  const auto scene = tools::make_scene(args);

  if (args.get_bool("sched", false)) {
    vmpi::Options options;
    options.enable_trace = true;
    const sched::SchedulerConfig sched_cfg =
        tools::make_sched_config(args, options);
    const auto stream = tools::round_robin_stream(
        args, static_cast<std::size_t>(args.get_int("jobs", 6)), 0.005,
        static_cast<int>(platform.size()) - 1);

    const obs::ScopedHostProfile profile;
    const obs::ScopedMetrics metrics;
    const auto result =
        sched::run_schedule(platform, scene.cube, stream, sched_cfg, options);

    std::printf("%-4s %-6s %9s %9s %9s %9s  members\n", "job", "alg",
                "arrive", "dispatch", "finish", "wait");
    for (const auto& record : result.records) {
      std::string members;
      for (const int m : record.members) {
        if (!members.empty()) members += ",";
        members += std::to_string(m);
      }
      if (record.rejected) {
        members = "rejected: " + record.error;
      } else if (record.state == sched::JobState::kDegraded ||
                 record.state == sched::JobState::kFailed) {
        members = std::string(sched::to_string(record.state)) + ": " +
                  record.error;
      }
      std::printf("%-4llu %-6s %9.4f %9.4f %9.4f %9.4f  %s\n",
                  static_cast<unsigned long long>(record.id),
                  core::to_string(record.algorithm), record.arrival_s,
                  record.dispatch_s, record.finish_s, record.queue_wait_s(),
                  members.c_str());
      // The resilient control plane keeps a per-attempt history; surface
      // it whenever a job needed more than one dispatch.
      if (sched_cfg.resilience.enabled && record.attempts.size() > 1) {
        for (const auto& attempt : record.attempts) {
          std::printf(
              "       attempt %d: [%9.4f, %9.4f] width %d ckpts %d "
              "resumed %d  %s\n",
              attempt.attempt, attempt.dispatch_s, attempt.end_s,
              attempt.width, attempt.checkpoints, attempt.resumed_seq,
              attempt.outcome.c_str());
        }
      }
    }
    tools::print_lost_ranks(result);
    std::printf(
        "policy %s: makespan %.4f s, cluster utilization %.3f on %zu ranks\n",
        sched::to_string(result.policy), result.makespan_s,
        result.utilization, platform.size());

    const std::string trace_path = args.get("out", "");
    if (!trace_path.empty()) {
      const std::string json =
          obs::chrome_trace_json(result.report, sched::job_track_groups(result),
                                 obs::HostProfiler::instance().spans());
      if (!write_file(trace_path, json)) {
        std::fprintf(stderr, "trace_run: failed to write %s\n",
                     trace_path.c_str());
        return 1;
      }
      std::printf("chrome trace: %s (open in ui.perfetto.dev)\n",
                  trace_path.c_str());
    }
    const std::string csv_path = args.get("csv", "");
    if (!csv_path.empty()) {
      if (!write_file(csv_path, vmpi::trace_csv(result.report))) {
        std::fprintf(stderr, "trace_run: failed to write %s\n",
                     csv_path.c_str());
        return 1;
      }
      std::printf("trace csv: %s\n", csv_path.c_str());
    }
    if (args.get_bool("gantt", false)) {
      std::printf("%s", vmpi::render_gantt(result.report).c_str());
    }
    return 0;
  }

  core::RunnerConfig cfg;
  cfg.algorithm = alg;
  cfg.policy = args.get_bool("homogeneous", false)
                   ? core::PartitionPolicy::kHomogeneous
                   : core::PartitionPolicy::kHeterogeneous;
  cfg.targets = static_cast<std::size_t>(args.get_int("targets", 18));
  cfg.classes = static_cast<std::size_t>(args.get_int("classes", 14));
  cfg.morph_iterations = static_cast<std::size_t>(args.get_int("iters", 5));
  cfg.kernel_radius = static_cast<std::size_t>(args.get_int("radius", 2));
  cfg.replication =
      static_cast<std::size_t>(args.get_int("replication", 119));
  cfg.tile_stream = args.get_bool("stream", false);

  vmpi::Options options;
  options.enable_trace = true;

  const obs::ScopedHostProfile profile;
  const obs::ScopedMetrics metrics;
  const auto out = core::run_algorithm(platform, scene.cube, cfg, options);

  std::printf("total virtual time: %.3f s on %zu ranks (%s, %s)\n",
              out.report.total_time, out.report.ranks.size(),
              core::to_string(alg), platform.name().c_str());

  const std::string trace_path = args.get("out", "");
  if (!trace_path.empty()) {
    const std::string json = obs::chrome_trace_json(
        out.report, obs::HostProfiler::instance().spans());
    if (!write_file(trace_path, json)) {
      std::fprintf(stderr, "trace_run: failed to write %s\n",
                   trace_path.c_str());
      return 1;
    }
    std::printf("chrome trace: %s (open in ui.perfetto.dev)\n",
                trace_path.c_str());
  }
  const std::string csv_path = args.get("csv", "");
  if (!csv_path.empty()) {
    if (!write_file(csv_path, vmpi::trace_csv(out.report))) {
      std::fprintf(stderr, "trace_run: failed to write %s\n",
                   csv_path.c_str());
      return 1;
    }
    std::printf("trace csv: %s\n", csv_path.c_str());
  }
  if (args.get_bool("gantt", false)) {
    std::printf("%s", vmpi::render_gantt(out.report).c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hprs::run_main(argc, argv, run, 2);
}
