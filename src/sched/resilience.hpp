// Cluster-level resilience: gang checkpoint/restart, elastic resize, and
// per-job retry with deterministic backoff (paper Sect. 6 outlook, scaled
// from one algorithm run to the multi-job cluster of src/sched).
//
// The solo fault-tolerant framework (core/ft.hpp) survives worker crashes
// *inside* one gang whose root is the immortal engine root.  On the
// cluster, a gang leader is an ordinary worker rank and may itself crash;
// the dispatcher then has to recover the *job*, not just a chunk.  This
// layer adds the three mechanisms the scheduler needs for that:
//
//  * ResilientDriver -- a checkpointing decorator over ft::Master.  At
//    every phase boundary it appends the per-chunk results to a replay log
//    and, at seeded virtual-time intervals, snapshots (frozen chunk list +
//    log) into the job's CheckpointStore entry with two-phase begin/commit
//    semantics, so a crash inside the (virtual-time) write window tears
//    the staged snapshot and keeps the previous committed one.  A resumed
//    attempt replays the logged phases for free and recomputes only the
//    tail; because chunks are atomic and folds run in chunk-id order, the
//    resumed outputs equal an uninterrupted run bit for bit on a gang of
//    *any* width (elastic resize via Master's resume constructor).
//
//  * Attempt deadlines -- when an attempt overruns its RetryPolicy
//    deadline at a phase boundary, the driver force-checkpoints and throws
//    PreemptSignal; the leader releases its workers and reports the
//    attempt preempted, and the dispatcher immediately requeues the job
//    (checkpointed progress intact).
//
//  * run_resilient_leader / run_resilient_worker -- the gang-side runtime
//    the scheduler's resilient mode dispatches onto.  All leader<->worker
//    traffic uses try-variants (ft::resilient_worker_loop), so a leader
//    crash is detected, never deadlocked on; surviving workers report
//    themselves free to the dispatcher, which retries the job with seeded
//    exponential backoff until it completes or exhausts its attempts
//    (JobState::kDegraded when checkpoints exist, kFailed otherwise).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/ft.hpp"
#include "core/ppi.hpp"
#include "core/types.hpp"
#include "hsi/cube.hpp"
#include "sched/checkpoint.hpp"
#include "sched/job.hpp"
#include "vmpi/comm.hpp"

namespace hprs::sched {

/// Retry/timeout policy for one job's attempts.
struct RetryPolicy {
  /// Total attempts (first run included) before the job goes terminal.
  int max_attempts = 3;
  /// Backoff before retry k (k >= 2) is
  ///   backoff_base_s * backoff_factor^(k-2) * (0.5 + u),
  /// u drawn from SplitMix64(backoff_seed ^ job id ^ k) -- deterministic
  /// jittered exponential backoff in virtual time.
  double backoff_base_s = 0.05;
  double backoff_factor = 2.0;
  std::uint64_t backoff_seed = 0x5eedf00dULL;
  /// Per-attempt virtual deadline: an attempt overrunning it at a phase
  /// boundary is checkpointed and preempted (requeued without backoff).
  /// <= 0 disables preemption.
  double attempt_deadline_s = 0.0;
};

/// Scheduler-level resilience configuration (SchedulerConfig::resilience).
struct ResilienceConfig {
  /// Off by default: the base scheduler path stays bit-identical.
  bool enabled = false;
  RetryPolicy retry;
  /// Mean virtual seconds between gang checkpoints.  Each interval is
  /// jittered by (0.75 + 0.5u), u from SplitMix64(checkpoint_seed ^ job id
  /// ^ attempt), so gangs do not checkpoint in lockstep.  <= 0 disables
  /// periodic checkpoints (the baseline snapshot is still written).
  double checkpoint_interval_s = 0.25;
  std::uint64_t checkpoint_seed = 0xc0ffee11ULL;
  /// When false, retries restart from scratch (the cold-restart baseline
  /// bench_sched_resilience compares checkpoint resume against).
  bool resume_from_checkpoint = true;
};

/// Thrown by ResilientDriver when an attempt overruns its deadline.
/// Deliberately NOT an hprs::Error: the leader catches it separately from
/// algorithm failures, and nothing else may swallow it accidentally.
struct PreemptSignal {};

/// Checkpointing decorator over ft::Master (the scheduler side of the
/// PhaseDriver seam).  The algorithm master closures run against this
/// unchanged; completed phases replay from the log, live phases delegate
/// to the wrapped Master and may snapshot afterwards.
class ResilientDriver final : public core::ft::PhaseDriver {
 public:
  /// `resumed` is the committed checkpoint this attempt continues from
  /// (null for a fresh start).  When `store` is non-null and there is no
  /// resumed snapshot, a baseline checkpoint (frozen chunks, empty log) is
  /// written immediately so even a first-phase crash restarts warm.
  ResilientDriver(vmpi::Comm& comm, core::ft::Master& master,
                  CheckpointStore* store, std::uint64_t job_id, int attempt,
                  const ResilienceConfig& config, const Checkpoint* resumed);

  [[nodiscard]] std::vector<std::any> phase(
      int phase_id, const core::ft::Handler& handler,
      std::shared_ptr<const std::any> payload = nullptr,
      std::size_t payload_bytes = 0) override;

  void finish() override;

  /// Checkpoints committed by this attempt (baseline included).
  [[nodiscard]] int checkpoints() const { return checkpoints_; }
  /// Phases replayed from the resumed snapshot (0 on a fresh start).
  [[nodiscard]] int resumed_seq() const { return resumed_seq_; }
  /// Virtual seconds this attempt spent writing checkpoints.
  [[nodiscard]] double checkpoint_cost_s() const { return checkpoint_cost_s_; }
  /// Commit times of this attempt's checkpoints (virtual seconds; trace
  /// instants on the job lane).
  [[nodiscard]] const std::vector<double>& checkpoint_at_s() const {
    return checkpoint_at_s_;
  }

 private:
  void write_checkpoint();
  void schedule_next_checkpoint();

  vmpi::Comm* comm_;
  core::ft::Master* master_;
  CheckpointStore* store_;
  std::uint64_t job_id_;
  int attempt_;
  ResilienceConfig config_;
  double attempt_start_s_;
  double next_checkpoint_s_ = 0.0;
  SplitMix64 jitter_;
  /// Per-phase results in issue order (resumed prefix + live appends).
  std::vector<std::vector<std::any>> log_;
  std::size_t next_replay_ = 0;
  int resumed_seq_ = 0;
  int checkpoints_ = 0;
  double checkpoint_cost_s_ = 0.0;
  std::vector<double> checkpoint_at_s_;
};

/// One job packaged for either gang runtime: the ft::Program plus the
/// heap-allocated result structs its closures write into (the Program
/// captures them by reference, so they must live exactly as long as it).
struct ProgramBundle {
  JobAlgorithm algorithm = JobAlgorithm::kAtdca;
  std::shared_ptr<core::TargetDetectionResult> target;
  std::shared_ptr<core::ClassificationResult> classification;
  std::shared_ptr<core::PpiResult> ppi;
  core::ft::Program program;

  /// Moves the algorithm's numeric result into `out` (leader side, after a
  /// completed run).
  void harvest(JobOutput& out);
};

/// Builds the job's ft::Program from its spec via job_config.  The base
/// gang runs it under ft::run_collective, the resilient gang under a
/// ResilientDriver.
[[nodiscard]] ProgramBundle make_job_program(const JobSpec& spec,
                                             const hsi::HsiCube& scene);

/// Leader-side report of one gang attempt.
struct AttemptOutcome {
  /// 0 = completed, 1 = preempted (deadline), 2 = failed (hprs::Error).
  int status = 0;
  std::string error;
  int checkpoints = 0;
  int resumed_seq = 0;
  double checkpoint_s = 0.0;
  std::vector<double> checkpoint_at_s;
};

/// Runs one attempt of `spec` as the gang leader (sub root) of `sub`.
/// Loads the committed checkpoint for resumes (attempt > 1, when enabled),
/// freezes a fresh WEA partition otherwise, and drives the job's Program
/// through a ResilientDriver.  Worker crashes are absorbed by the wrapped
/// Master; deadline overruns and algorithm errors are reported in the
/// outcome (the workers are released on every path, so they always return
/// to the dispatcher's pool).  A crash of *this* rank propagates as the
/// engine's crash signal -- never caught here.
[[nodiscard]] AttemptOutcome run_resilient_leader(
    vmpi::Comm& sub, const JobSpec& spec, const hsi::HsiCube& scene,
    int attempt, const ResilienceConfig& config, CheckpointStore* store,
    JobOutput& out);

/// Runs one attempt as a non-leader gang member: serves the leader's
/// commands via ft::resilient_worker_loop.  Returns true when the leader
/// released this rank, false when the leader was detected dead (the caller
/// reports itself free to the dispatcher either way).
[[nodiscard]] bool run_resilient_worker(vmpi::Comm& sub, const JobSpec& spec,
                                        const hsi::HsiCube& scene);

/// Releases a gang whose leader failed before a Master existed (WEA or
/// resume-construction error): try_sends the exit command to every
/// non-root member with Master::finish's exact accounting, so the workers
/// unblock instead of deadlocking on a command that never comes.
void release_gang(vmpi::Comm& sub);

/// Validates a cluster fault plan at schedule construction: every crash
/// must name an in-range rank other than the dispatcher root (the control
/// plane's single point of control).  Throws hprs::Error with the offending
/// plan key (e.g. "fault_plan.crashes[1].rank") in the message.
void validate_cluster_fault_plan(const vmpi::Options& options,
                                 std::size_t platform_size);

}  // namespace hprs::sched
