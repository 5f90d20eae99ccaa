// Cluster-level resilience: gang checkpoint/restart, elastic resize, and
// per-job retry with deterministic backoff (paper Sect. 6 outlook, scaled
// from one algorithm run to the multi-job cluster of src/sched).
//
// Every gang runs its job under core::ft::CollectiveDriver, which already
// survives the crash of any member but the gang root (core/ft.hpp).  On
// the cluster that root -- the gang leader -- is an ordinary worker rank
// and may itself crash; the dispatcher then has to recover the *job*, not
// just a chunk.  This layer adds the mechanisms the scheduler needs:
//
//  * ResilientDriver -- a checkpointing decorator over the collective
//    driver, on every gang member.  At every phase boundary the leader
//    appends the per-chunk results to a replay log and, at seeded
//    virtual-time intervals, snapshots (frozen chunk list + log) into the
//    job's CheckpointStore entry with two-phase begin/commit semantics, so
//    a crash inside the (virtual-time) write window tears the staged
//    snapshot and keeps the previous committed one.  A resumed attempt's
//    leader deals the frozen chunks over whatever width its gang has and
//    ships the resume depth with them; every member then replays the
//    logged phases for free and recomputes only the tail.  Because chunks
//    are atomic and folds run in chunk-id order, the resumed outputs equal
//    an uninterrupted run bit for bit on a gang of *any* width.
//
//  * Attempt deadlines -- when an attempt overruns its RetryPolicy
//    deadline at a phase boundary, the leader force-checkpoints and
//    broadcasts the decision, the whole gang throws PreemptSignal, and the
//    dispatcher immediately requeues the job (checkpointed progress
//    intact).
//
//  * run_attempt -- one attempt of a job on a gang, the body of the
//    scheduler's gang runtime.  A leader crash surfaces at the dispatcher
//    as a report that never arrives; the dispatcher then retries the job
//    with seeded exponential backoff until it completes or exhausts its
//    attempts (JobState::kDegraded when checkpoints exist, kFailed
//    otherwise).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/ft.hpp"
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
  ///   backoff_base_s * 2^(k-2) * (0.5 + u),
  /// u drawn from SplitMix64(0x5eedf00d ^ job id ^ k) -- deterministic
  /// jittered exponential backoff in virtual time.
  double backoff_base_s = 0.05;
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
  /// jittered by (0.75 + 0.5u), u from SplitMix64(0xc0ffee11 ^ job id ^
  /// attempt), so gangs do not checkpoint in lockstep.  <= 0 disables
  /// periodic checkpoints (the baseline snapshot is still written).
  double checkpoint_interval_s = 0.25;
  /// When false, retries restart from scratch (the cold-restart baseline
  /// bench_sched_resilience compares checkpoint resume against).
  bool resume_from_checkpoint = true;
};

/// Thrown on every gang member when an attempt overruns its deadline.
/// Deliberately NOT an hprs::Error: the gang runtime catches it separately
/// from algorithm failures, and nothing else may swallow it accidentally.
struct PreemptSignal {};

/// Checkpointing decorator over the collective driver (the scheduler side
/// of the PhaseDriver seam), on every gang member.  The algorithm control
/// flows run against this unchanged; completed phases replay from the log,
/// live phases delegate to the wrapped driver and the leader may snapshot
/// afterwards.
class ResilientDriver final : public core::ft::PhaseDriver {
 public:
  /// `comm` is the gang's handle (the one `inner` runs on).  `resumed` is
  /// the committed checkpoint `inner` dealt its chunks from (leader only;
  /// null on a fresh start); the other members take the depth from
  /// inner.resume_depth().  With a `store` and no resumed snapshot the
  /// leader writes a baseline checkpoint (frozen chunks, empty log) at
  /// once, so even a first-phase crash restarts warm.
  ResilientDriver(vmpi::Comm& comm, core::ft::CollectiveDriver& inner,
                  CheckpointStore* store, std::uint64_t job_id, int attempt,
                  const ResilienceConfig& config, const Checkpoint* resumed);

  [[nodiscard]] std::vector<std::any> phase(
      const core::ft::Handler& handler,
      std::shared_ptr<const std::any> payload = nullptr,
      std::size_t payload_bytes = 0) override;
  void release(std::shared_ptr<const std::any> payload,
               std::size_t payload_bytes) override;

  /// Phases replayed from the resumed snapshot (0 on a fresh start).
  [[nodiscard]] int resumed_seq() const { return resumed_seq_; }
  /// Virtual seconds the leader spent writing checkpoints.
  [[nodiscard]] double checkpoint_cost_s() const { return checkpoint_cost_s_; }
  /// Commit times of the leader's checkpoints, baseline included (virtual
  /// seconds; trace instants on the job lane).
  [[nodiscard]] const std::vector<double>& checkpoint_at_s() const {
    return checkpoint_at_s_;
  }

 private:
  void write_checkpoint();
  void schedule_next_checkpoint();

  vmpi::Comm* comm_;
  core::ft::CollectiveDriver* inner_;
  CheckpointStore* store_;
  std::uint64_t job_id_;
  int attempt_;
  ResilienceConfig config_;
  double attempt_start_s_;
  double next_checkpoint_s_ = 0.0;
  SplitMix64 jitter_;
  /// Leader: per-phase results in issue order (resumed prefix + live
  /// appends).
  std::vector<std::vector<std::any>> log_;
  int replayed_ = 0;
  int resumed_seq_ = 0;
  double checkpoint_cost_s_ = 0.0;
  std::vector<double> checkpoint_at_s_;
};

/// The leader's report of one gang attempt.
struct AttemptOutcome {
  /// 0 = completed, 1 = preempted (deadline), 2 = failed (hprs::Error).
  int status = 0;
  std::string error;
  int resumed_seq = 0;
  double checkpoint_s = 0.0;
  std::vector<double> checkpoint_at_s;
};

/// Runs one attempt of `spec` on `gang` (a tolerant handle; every member
/// calls this).  Deals a fresh WEA partition, or -- for a resilient retry
/// with a committed checkpoint -- the frozen chunks, and drives the job's
/// Program through the collective driver, wrapped in a ResilientDriver
/// when `config.enabled`.  Member crashes are absorbed in place; deadline
/// overruns and algorithm errors end up in the outcome on every member.
/// The leader's result lands in `out`.  Throws core::ft::RootLost on the
/// survivors when the leader died; a crash of *this* rank propagates as
/// the engine's crash signal.
[[nodiscard]] AttemptOutcome run_attempt(vmpi::Comm& gang, const JobSpec& spec,
                                         const hsi::HsiCube& scene,
                                         int attempt,
                                         const ResilienceConfig& config,
                                         CheckpointStore* store,
                                         JobOutput& out);

/// Validates a cluster fault plan at schedule construction: every crash
/// must name an in-range rank other than the dispatcher root (the control
/// plane's single point of control).  Throws hprs::Error with the offending
/// plan key (e.g. "fault_plan.crashes[1].rank") in the message.
void validate_cluster_fault_plan(const vmpi::Options& options,
                                 std::size_t platform_size);

}  // namespace hprs::sched
