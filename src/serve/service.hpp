// run_service: the scene service's end-to-end driver.
//
//   trace -> sched::run_schedule (rate limits, memory admission, in-flight
//            caps, batching, dispatch) -> batch stats + SLA reports
//
// One call hands a request stream (usually from serve/traffic.hpp) and a
// sched::SchedulerConfig to sched::run_schedule, the one admission gate:
// it applies both tenant quota families and returns one record / output
// per request in stream order, refused requests carrying their named
// reasons.  run_service then derives the batching statistics and the
// per-tenant SLA statistics (wait / makespan / slowdown percentiles) and
// publishes the serve.* metrics.  Everything downstream of the stream is
// a pure function of it, so reports are bit-identical across runs and
// both executor modes.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "hsi/cube.hpp"
#include "obs/run_summary.hpp"
#include "sched/scheduler.hpp"
#include "serve/batcher.hpp"
#include "simnet/platform.hpp"
#include "vmpi/engine.hpp"

namespace hprs::serve {

/// Per-tenant service-level statistics over one run.  Percentiles are
/// nearest-rank over the tenant's completed requests; slowdown is
/// (wait + makespan) / makespan, the bounded-slowdown numerator the
/// scheduling literature reports.
struct TenantSla {
  std::string name;
  std::size_t requests = 0;
  std::size_t completed = 0;
  std::size_t rejected = 0;
  /// Completed requests served as batched riders.
  std::size_t riders = 0;
  double wait_p50_s = 0.0;
  double wait_p95_s = 0.0;
  double makespan_p50_s = 0.0;
  double makespan_p95_s = 0.0;
  double slowdown_p50 = 0.0;
  double slowdown_p95 = 0.0;
  /// Summed busy seconds the tenant's gangs charged the cluster.
  double busy_s = 0.0;
};

struct ServiceResult {
  /// The scheduler's outcome: one record / output per request, in stream
  /// order; refused requests carry kRejected records (error = the named
  /// reason) and empty outputs.
  sched::ScheduleResult schedule;
  /// Requests refused by a tenant rate limit.
  std::size_t rate_rejected = 0;
  BatchStats batches;
  /// Per-tenant SLAs, sorted by tenant name.
  std::vector<TenantSla> tenants;
};

/// Runs the service over `stream` on `platform`.  Ids must be unique, and
/// a config with a rate limit needs an arrival-sorted stream
/// (generate_trace output qualifies).
[[nodiscard]] ServiceResult run_service(
    const simnet::Platform& platform, const hsi::HsiCube& scene,
    const std::vector<sched::JobSpec>& stream,
    const sched::SchedulerConfig& config = {}, vmpi::Options options = {});

/// Nearest-rank percentile of an unsorted sample, q in (0, 1].
[[nodiscard]] double percentile(std::vector<double> xs, double q);

/// Per-tenant SLAs over completion records (sorted by tenant name; the
/// empty tenant name reports as "default").
[[nodiscard]] std::vector<TenantSla> tenant_slas(
    const std::vector<sched::JobRecord>& records);

/// Records the result's service-level plane under `prefix.`: stream-wide
/// counts, makespan/utilization, batching stats, and every tenant's SLA
/// under `prefix.tenant.<name>.*`.  All stable keys.
void add_sla_summary(obs::RunSummary& summary, std::string_view prefix,
                     const ServiceResult& result);

/// Human-readable per-tenant SLA table (one header + one row per tenant).
[[nodiscard]] std::string sla_table(const ServiceResult& result);

}  // namespace hprs::serve
