// Scene service: a shared network of workstations serving production
// traffic (paper Sect. 6 outlook -- many concurrent analyses competing for
// one cluster, here as a multi-tenant service).
//
//   ./scene_service [--trace steady|diurnal|bursty|tenant-mix] [--jobs N]
//                   [--duration S] [--policy fifo|sjf|hetero] [--batch B]
//                   [--rows N] [--cols N] [--seed S]
//
// Generates a seeded arrival trace of the chosen shape (default: the
// skewed three-tenant mix), serves it through serve::run_service --
// rate-limit admission, compute-once batching (--batch 1, default on),
// gang placement under the chosen policy -- and prints the per-request
// completion table plus the per-tenant SLA report.  Everything runs in
// virtual time, so both tables are bit-identical across runs and executor
// modes.
#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "hsi/scene.hpp"
#include "serve/service.hpp"
#include "serve/traffic.hpp"
#include "simnet/platform.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace hprs;
  const CliArgs args(argc, argv, {"trace", "jobs", "duration", "policy",
                                  "batch", "rows", "cols", "seed"});

  // 1. The shared scene every request analyses (stands in for the AVIRIS
  //    World Trade Center cube) and the shared cluster serving the stream.
  hsi::SceneConfig scene_cfg;
  scene_cfg.rows = static_cast<std::size_t>(args.get_int("rows", 64));
  scene_cfg.cols = static_cast<std::size_t>(args.get_int("cols", 64));
  scene_cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 20010916));
  const hsi::Scene scene = hsi::generate_wtc_scene(scene_cfg);
  const simnet::Platform platform = simnet::fully_heterogeneous();

  // 2. The traffic: a seeded trace of the requested shape, tenants and
  //    request parameters from the preset's tenant profiles.
  serve::TraceConfig trace_cfg =
      serve::preset_trace(args.get("trace", "tenant-mix"));
  trace_cfg.jobs = static_cast<std::size_t>(args.get_int("jobs", 24));
  trace_cfg.duration_s = args.get_double("duration", 4.0);
  trace_cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 20010916));
  for (serve::TenantProfile& tenant : trace_cfg.tenants) {
    tenant.targets = 6;
    tenant.classes = 4;
    tenant.skewers = 32;
  }
  const auto stream = serve::generate_trace(trace_cfg);

  // 3. Service policy: admission quotas for the ad-hoc tail, batching on
  //    by default so the survey tenant's shared question computes once.
  serve::ServiceConfig config;
  config.policy = sched::parse_policy(args.get("policy", "hetero"));
  config.batching = args.get_bool("batch", true);
  config.quotas["adhoc"].max_inflight_ranks = 4;

  std::printf(
      "scene service: %zu requests (%s trace) on %s (%zu processors), "
      "%s, batching %s\n\n",
      stream.size(), serve::to_string(trace_cfg.shape),
      platform.name().c_str(), platform.size(),
      sched::to_string(config.policy), config.batching ? "on" : "off");

  const auto result = serve::run_service(platform, scene.cube, stream,
                                         config);

  // 4. Per-request completion table with batching/quota attribution.
  std::printf("%4s  %-8s  %-6s  %9s  %9s  %9s  note\n", "req", "tenant",
              "alg", "arrive(s)", "wait(s)", "finish(s)");
  for (const auto& record : result.schedule.records) {
    if (record.state == sched::JobState::kRejected) {
      std::printf("%4llu  %-8s  %-6s  %9.3f  rejected: %s\n",
                  static_cast<unsigned long long>(record.id),
                  record.tenant.c_str(), core::to_string(record.algorithm),
                  record.arrival_s, record.error.c_str());
      continue;
    }
    std::string note;
    if (record.batched_into != 0) {
      note = "rider of job " + std::to_string(record.batched_into);
    } else if (record.batch_fanout > 0) {
      note = "computed for " + std::to_string(record.batch_fanout) +
             " riders";
    }
    std::printf("%4llu  %-8s  %-6s  %9.3f  %9.3f  %9.3f  %s\n",
                static_cast<unsigned long long>(record.id),
                record.tenant.c_str(), core::to_string(record.algorithm),
                record.arrival_s, record.queue_wait_s(), record.finish_s,
                note.c_str());
  }

  // 5. The per-tenant SLA report.
  std::printf("\n%s", serve::sla_table(result).c_str());
  std::printf(
      "\nstream: %zu completed, %zu rejected (%zu by rate limits); "
      "%zu riders saved %.3f virtual s; makespan %.3f virtual s, "
      "cluster utilization %.1f%%\n",
      result.schedule.completed(), result.schedule.rejected(),
      result.rate_rejected, result.batches.riders,
      result.batches.saved_est_s, result.schedule.makespan_s,
      100.0 * result.schedule.utilization);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hprs::run_main(argc, argv, run, 1);
}
