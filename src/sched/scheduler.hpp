// Deterministic virtual-time multi-job scheduler over one shared engine.
//
// run_schedule starts one vmpi engine over the whole platform and runs an
// SPMD control program on it: the engine's root rank becomes the
// *dispatcher* (it never computes); every other rank is a *worker*.  The
// dispatcher paces the stream's virtual-time arrivals with sleep_until,
// admits them (tenant rank caps, compute-once batching), picks the next
// job and its rank subset with the pluggable policy (sched/policy.hpp),
// and gang-dispatches the job by sending each member a command message;
// the members build a sub-communicator with Comm::subset and run the job
// on it.  One dispatcher loop serves both gang runtimes, which run the
// same ft::Program (core::make_program) under different drivers: by default
// a gang runs it as the paper's SPMD schedule (ft::run_collective) and its
// leader reports one completion (aligned finish time + summed busy time);
// under SchedulerConfig::resilience it runs under a checkpointing
// master/worker driver, and failed or preempted attempts go through the
// same loop's retry queue.  See DESIGN.md section 11 for the determinism
// argument.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "hsi/cube.hpp"
#include "obs/chrome_trace.hpp"
#include "sched/job.hpp"
#include "sched/policy.hpp"
#include "sched/resilience.hpp"
#include "simnet/platform.hpp"
#include "vmpi/engine.hpp"

namespace hprs::sched {

struct SchedulerConfig {
  Policy policy = Policy::kHeteroBestFit;
  /// Publish per-job Domain::kStable metrics (queue wait, makespan,
  /// utilization) into the obs registry after the run.
  bool record_metrics = true;
  /// Cluster resilience (sched/resilience.hpp).  When enabled gangs run the
  /// checkpointing ft::Program runtime: gang leaders are mortal, crashed
  /// ranks leave the pool, preempted or failed jobs are retried
  /// (elastically resized, resumed from their last checkpoint) with seeded
  /// backoff, and jobs exhausting their attempts go kDegraded / kFailed
  /// instead of aborting the schedule.  Off by default: gangs then run the
  /// paper's SPMD schedule and crash plans are refused.
  ResilienceConfig resilience;
  /// Compute-once batching (serve/batcher.hpp): when a job with a nonzero
  /// JobSpec::batch_key is dispatched or running, compute-equivalent jobs
  /// sharing the key attach to its gang as *riders* instead of dispatching
  /// -- the gang computes once and the scheduler fans the result out to
  /// every rider at completion (JobRecord::batched_into / batch_fanout).
  /// A failed or preempted attempt releases its riders, which re-enter
  /// like arrivals.  Off by default (streams with zero keys are unaffected
  /// either way).
  bool batch_shared_keys = false;
  /// Per-tenant admission cap on in-flight ranks: the summed requested
  /// gang widths of a tenant's admitted, not-yet-finished jobs (queued +
  /// running + riders) may not exceed its cap.  A job arriving over the
  /// cap is rejected at its arrival event with a named
  /// "quota:inflight_ranks ..." reason.  Tenants without an entry (and
  /// entries <= 0) are unlimited.  Retries keep their ranks in flight;
  /// every terminal state releases them.
  std::map<std::string, int> tenant_rank_caps;
};

/// Outcome of scheduling one job stream.
struct ScheduleResult {
  Policy policy = Policy::kHeteroBestFit;
  /// One record / output per stream entry, in stream order.
  std::vector<JobRecord> records;
  std::vector<JobOutput> outputs;
  vmpi::RunReport report;
  /// Virtual time of the last job completion.
  double makespan_s = 0.0;
  /// Summed job busy time over (worker count x makespan): the cluster-wide
  /// busy fraction while the stream was in flight.
  double utilization = 0.0;
  /// Engine ranks the resilient dispatcher detected dead and removed from
  /// the worker pool (ascending; always empty in base mode).
  std::vector<int> lost_ranks;
  [[nodiscard]] std::size_t completed() const;
  [[nodiscard]] std::size_t rejected() const;
  /// Jobs that exhausted their retries with / without checkpointed
  /// progress (resilient mode only; zero in base mode).
  [[nodiscard]] std::size_t degraded() const;
  [[nodiscard]] std::size_t failed() const;
};

/// Admits, places, and runs `stream` on `platform` under `config.policy`.
/// Jobs that fail memory-bound admission or a tenant rank cap are marked
/// rejected (with the named reason) and never dispatch; every other job
/// ends in exactly one terminal state -- completed, or under resilience
/// degraded / failed.  Deterministic: identical streams produce
/// bit-identical records, outputs, and stable metrics across runs and
/// both executor modes.
[[nodiscard]] ScheduleResult run_schedule(const simnet::Platform& platform,
                                          const hsi::HsiCube& scene,
                                          const std::vector<JobSpec>& stream,
                                          const SchedulerConfig& config = {},
                                          vmpi::Options options = {});

/// One Chrome-trace track group per completed job, labelled
/// "job:<id>/<ALG>" and windowed to [dispatch_s, finish_s), so a traced
/// schedule (Options::enable_trace) renders each gang as its own process
/// in the viewer (obs::chrome_trace_json group overload).
[[nodiscard]] std::vector<obs::TraceTrackGroup> job_track_groups(
    const ScheduleResult& result);

}  // namespace hprs::sched
