// Job descriptions and completion records for the multi-job scheduler.
//
// A job is one analysis (ATDCA / UFCLS / PCT / MORPH / PPI) over a scene,
// gang-placed onto a subset of the ranks of a shared simulated platform.
// JobSpec is what a client submits; JobRecord is the scheduler's per-job
// accounting (queue wait, placement, virtual makespan, utilization), all
// derived from virtual time so records are bit-identical across runs and
// executor modes; JobOutput carries the algorithm's numeric result, which
// must equal a solo run of the same algorithm on the same rank subset bit
// for bit (tests/sched_scheduler_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/runner.hpp"
#include "hsi/cube.hpp"

namespace hprs::sched {

// Older names of core::Algorithm and core::AlgorithmOutput, still used by
// perfbench/.
using JobAlgorithm = core::Algorithm;
using JobOutput = core::AlgorithmOutput;

/// One submitted analysis job: the request (core::AlgorithmSpec) plus its
/// placement.  Every gang runs it as core::make_program builds it with the
/// default execution choices.  `ranks` is the gang width -- the job runs on
/// exactly that many worker ranks, chosen by the placement policy.
struct JobSpec : core::AlgorithmSpec {
  /// Unique (per stream) job id; ties in every policy ordering break on it.
  std::uint64_t id = 0;
  /// Virtual submission time, seconds.
  double arrival_s = 0.0;
  /// Gang width: number of worker ranks the job is placed on.
  int ranks = 1;

  /// Scene override; the scheduler's shared scene when null.
  const hsi::HsiCube* scene = nullptr;

  /// Submitting tenant (serve layer); empty for untenanted jobs.  The
  /// dispatcher files per-tenant pvar samples under "tenant:<name>" scopes,
  /// and run_schedule applies the tenant's SchedulerConfig::quotas entry.
  std::string tenant;
  /// Shared-work key (serve/batcher.hpp): two specs with the same nonzero
  /// key *and* compute-equivalent parameters (compute_equivalent) may be
  /// served by one gang under SchedulerConfig::batching.  Zero (the
  /// default) never batches.
  std::uint64_t batch_key = 0;
};

/// True when `a` and `b` run the identical computation: equal requests
/// (core::AlgorithmSpec) over the same scene override.  Gang width and
/// arrival metadata are placement concerns and deliberately excluded -- a
/// batched rider reuses the leader's gang, and its output then equals a
/// solo run of its own spec on that same gang bit for bit.  Guards
/// batching against batch-key hash collisions.
[[nodiscard]] bool compute_equivalent(const JobSpec& a, const JobSpec& b);

/// Terminal disposition of a job.  Every job ends kCompleted, kRejected
/// (a tenant quota or memory admission), kFailed (its attempts ended
/// without a result and nothing was saved: a leader crash or a gang error,
/// retried first under SchedulerConfig::resilience) or, under resilience,
/// kDegraded (retries exhausted but checkpointed progress exists) instead
/// of aborting the whole schedule.
enum class JobState : std::uint8_t {
  kPending,
  kCompleted,
  kRejected,
  kDegraded,
  kFailed,
};

[[nodiscard]] const char* to_string(JobState state);

/// One dispatch attempt of a job under the resilient scheduler (empty for
/// the base scheduler).  All times are virtual seconds.
struct JobAttempt {
  /// 1-based attempt number.
  int attempt = 1;
  double dispatch_s = -1.0;
  /// When the dispatcher retired the attempt (-1 while in flight).
  double end_s = -1.0;
  /// Backoff this attempt waited in the retry queue (0 for the first
  /// attempt and for preemption requeues).
  double backoff_s = 0.0;
  /// Gang width of the attempt (elastic resize may shrink it).
  int width = 0;
  /// Engine ranks of the attempt's gang, ascending; [0] is the leader.
  std::vector<int> members;
  /// Phases replayed from the checkpoint this attempt resumed at.
  int resumed_seq = 0;
  /// Checkpoints the attempt committed.
  int checkpoints = 0;
  /// Virtual seconds the attempt spent writing checkpoints.
  double checkpoint_s = 0.0;
  /// Commit times of those checkpoints (trace instants).
  std::vector<double> checkpoint_at_s;
  /// "completed", "preempted", "leader crashed", or the failure message.
  std::string outcome;
};

/// Per-job completion record.  All times are virtual seconds.
struct JobRecord {
  std::uint64_t id = 0;
  core::Algorithm algorithm = core::Algorithm::kAtdca;
  double arrival_s = 0.0;
  /// When the dispatcher issued the gang's command messages (-1 until
  /// dispatched; stays -1 for rejected jobs).
  double dispatch_s = -1.0;
  /// The gang's aligned completion time (-1 until completed).
  double finish_s = -1.0;
  /// Cost-model estimate on the assigned members (or on the canonical
  /// full-pool members until dispatch) -- the ordering key of SJF and the
  /// backfill reservation horizon.
  double est_seconds = 0.0;
  /// Engine (world) ranks of the gang, ascending; members[0] is the leader.
  std::vector<int> members;
  /// Summed busy time (compute + active transfer) of the members between
  /// job start and the completion barrier.
  double busy_s = 0.0;
  /// Admission verdict: rejected jobs never dispatch and carry the named
  /// reason in `error` (a "quota:..." reason or the AdmissionError).
  bool rejected = false;
  std::string error;
  /// Terminal disposition (kPending only while the schedule is running).
  JobState state = JobState::kPending;
  /// Submitting tenant, copied from the spec ("" for untenanted jobs).
  std::string tenant;
  /// Nonzero for a batched rider: the id of the leader job whose gang
  /// computed this request's result (serve/batcher.hpp).  The rider's
  /// output is the leader's, copied after the run; its busy_s counts only
  /// its own earlier attempts (0 unless a resilient retry rode a gang).
  std::uint64_t batched_into = 0;
  /// On a batch leader: how many riders its gang's single computation
  /// served in addition to itself.
  std::size_t batch_fanout = 0;
  /// Attempt history under the resilient scheduler; empty in base mode.
  /// `dispatch_s` / `members` above describe the attempt that completed
  /// the job (the last one), or for a rider the gang it rode.
  std::vector<JobAttempt> attempts;

  [[nodiscard]] bool completed() const { return finish_s >= 0.0; }
  [[nodiscard]] double queue_wait_s() const {
    return dispatch_s >= 0.0 ? dispatch_s - arrival_s : 0.0;
  }
  [[nodiscard]] double makespan_s() const {
    return completed() ? finish_s - dispatch_s : 0.0;
  }
  /// Mean busy fraction of the gang over the job's makespan.
  [[nodiscard]] double utilization() const {
    const double span = makespan_s() * static_cast<double>(members.size());
    return span > 0.0 ? busy_s / span : 0.0;
  }
};

}  // namespace hprs::sched
