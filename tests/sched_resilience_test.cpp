// Cluster-level resilience (sched/resilience.hpp + the scheduler's
// resilient mode):
//
//  * outputs first -- a checkpointed, crashed, preempted, or elastically
//    resized job's outputs equal an *uninterrupted* solo run of the same
//    program on the gang that froze its chunks, bit for bit (replay +
//    chunk-id-order folds must never change the science);
//  * determinism second -- a fixed fault plan yields bit-identical
//    records, outputs, lost-rank sets, and stable metrics across repeated
//    runs and across both host execution modes, including a many-rank
//    stress schedule;
//  * double faults -- a crash during another crash's recovery, a crash
//    inside the checkpoint write window, and preempt-then-crash on a
//    resized gang all keep the invariants;
//  * verdicts and guardrails -- retries exhaust into kDegraded (with
//    checkpoints) or kFailed (without), and malformed cluster fault plans
//    are rejected at schedule construction with the offending plan key;
//  * composition -- a rank that dies idle right after reporting itself
//    free is detected instead of aborting the run, and batching riders
//    plus tenant rank caps survive a leader crash with solo-equal outputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "common/error.hpp"
#include "hsi/scene.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "sched/resilience.hpp"
#include "sched/scheduler.hpp"
#include "serve/batcher.hpp"
#include "serve/traffic.hpp"
#include "sched_solo_oracle.hpp"
#include "test_scenes.hpp"
#include "vmpi/comm.hpp"
#include "vmpi/engine.hpp"

namespace hprs::sched {
namespace {

simnet::Platform cluster(std::size_t n) {
  std::vector<simnet::ProcessorSpec> procs;
  for (std::size_t i = 0; i < n; ++i) {
    procs.push_back(simnet::ProcessorSpec{
        "p" + std::to_string(i), "t",
        0.001 * static_cast<double>(1 + i % 3), 1024, 512, 0});
  }
  return simnet::Platform("sched-resil", std::move(procs), {{10.0}});
}

vmpi::Options fast_options(
    vmpi::ExecMode mode = vmpi::ExecMode::kBoundedExecutor) {
  vmpi::Options o;
  o.per_message_latency_s = 0.0;
  o.deadlock_timeout_s = 120.0;
  o.exec_mode = mode;
  return o;
}

hsi::HsiCube test_scene() { return testing::striped_cube(32, 16, 24, 4); }

/// A mixed five-algorithm stream with staggered arrivals (the scheduler
/// test's stream, reused so base and resilient modes face the same load).
std::vector<JobSpec> mixed_stream() {
  std::vector<JobSpec> stream;
  JobSpec a;
  a.id = 1;
  a.algorithm = core::Algorithm::kAtdca;
  a.arrival_s = 0.0;
  a.ranks = 3;
  a.targets = 4;
  stream.push_back(a);
  JobSpec b;
  b.id = 2;
  b.algorithm = core::Algorithm::kPct;
  b.arrival_s = 0.0;
  b.ranks = 2;
  b.classes = 3;
  stream.push_back(b);
  JobSpec c;
  c.id = 3;
  c.algorithm = core::Algorithm::kPpi;
  c.arrival_s = 0.002;
  c.ranks = 2;
  c.targets = 4;
  c.skewers = 32;
  stream.push_back(c);
  JobSpec d;
  d.id = 4;
  d.algorithm = core::Algorithm::kMorph;
  d.arrival_s = 0.004;
  d.ranks = 2;
  d.classes = 3;
  d.morph_iterations = 2;
  d.kernel_radius = 1;
  stream.push_back(d);
  JobSpec e;
  e.id = 5;
  e.algorithm = core::Algorithm::kUfcls;
  e.arrival_s = 0.004;
  e.ranks = 3;
  e.targets = 3;
  stream.push_back(e);
  return stream;
}

/// One long ATDCA job: wide enough to be resized, with enough phase
/// boundaries (one per target) to take several periodic checkpoints.
std::vector<JobSpec> long_job(int ranks, std::size_t replication = 8) {
  JobSpec spec;
  spec.id = 1;
  spec.algorithm = core::Algorithm::kAtdca;
  spec.arrival_s = 0.0;
  spec.ranks = ranks;
  spec.targets = 8;
  spec.replication = replication;
  return {spec};
}

SchedulerConfig resilient_config(double checkpoint_interval_s = 0.0,
                                 int max_attempts = 4) {
  SchedulerConfig config;
  config.resilience.enabled = true;
  config.resilience.checkpoint_interval_s = checkpoint_interval_s;
  config.resilience.retry.max_attempts = max_attempts;
  return config;
}

void expect_attempts_equal(const std::vector<JobAttempt>& a,
                           const std::vector<JobAttempt>& b,
                           std::uint64_t job_id) {
  ASSERT_EQ(a.size(), b.size()) << "job " << job_id;
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].attempt, b[k].attempt) << "job " << job_id << " #" << k;
    EXPECT_EQ(a[k].dispatch_s, b[k].dispatch_s) << "job " << job_id;
    EXPECT_EQ(a[k].end_s, b[k].end_s) << "job " << job_id;
    EXPECT_EQ(a[k].backoff_s, b[k].backoff_s) << "job " << job_id;
    EXPECT_EQ(a[k].width, b[k].width) << "job " << job_id;
    EXPECT_EQ(a[k].members, b[k].members) << "job " << job_id;
    EXPECT_EQ(a[k].resumed_seq, b[k].resumed_seq) << "job " << job_id;
    EXPECT_EQ(a[k].checkpoints, b[k].checkpoints) << "job " << job_id;
    EXPECT_EQ(a[k].checkpoint_s, b[k].checkpoint_s) << "job " << job_id;
    EXPECT_EQ(a[k].checkpoint_at_s, b[k].checkpoint_at_s) << "job " << job_id;
    EXPECT_EQ(a[k].outcome, b[k].outcome) << "job " << job_id;
  }
}

void expect_records_equal(const std::vector<JobRecord>& a,
                          const std::vector<JobRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << "job " << i;
    EXPECT_EQ(a[i].dispatch_s, b[i].dispatch_s) << "job " << i;
    EXPECT_EQ(a[i].finish_s, b[i].finish_s) << "job " << i;
    EXPECT_EQ(a[i].est_seconds, b[i].est_seconds) << "job " << i;
    EXPECT_EQ(a[i].members, b[i].members) << "job " << i;
    EXPECT_EQ(a[i].busy_s, b[i].busy_s) << "job " << i;
    EXPECT_EQ(a[i].rejected, b[i].rejected) << "job " << i;
    EXPECT_EQ(a[i].state, b[i].state) << "job " << i;
    EXPECT_EQ(a[i].error, b[i].error) << "job " << i;
    expect_attempts_equal(a[i].attempts, b[i].attempts, a[i].id);
  }
}

void expect_outputs_equal(const std::vector<JobOutput>& a,
                          const std::vector<JobOutput>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].targets, b[i].targets) << "job " << i;
    EXPECT_EQ(a[i].scores, b[i].scores) << "job " << i;
    EXPECT_EQ(a[i].labels, b[i].labels) << "job " << i;
    EXPECT_EQ(a[i].label_count, b[i].label_count) << "job " << i;
  }
}

void expect_output_matches_solo(const JobOutput& got, const JobOutput& solo,
                                std::uint64_t job_id) {
  EXPECT_EQ(got.targets, solo.targets) << "job " << job_id;
  EXPECT_EQ(got.scores, solo.scores) << "job " << job_id;
  EXPECT_EQ(got.labels, solo.labels) << "job " << job_id;
  EXPECT_EQ(got.label_count, solo.label_count) << "job " << job_id;
}

/// The gang that froze the completing attempt's chunks: the first attempt
/// when checkpoints carried the chunk list forward, the final attempt
/// after a cold restart re-partitioned from scratch.
const std::vector<int>& chunk_owner_members(const JobRecord& record,
                                            bool resumed) {
  return resumed ? record.attempts.front().members
                 : record.attempts.back().members;
}

/// Every admitted job ends in exactly one terminal state; quota and
/// admission rejections are the only kRejected records.
void expect_terminal_once(const ScheduleResult& result) {
  for (const JobRecord& record : result.records) {
    EXPECT_EQ(record.rejected, record.state == JobState::kRejected)
        << "job " << record.id;
    EXPECT_EQ(record.completed(), record.state == JobState::kCompleted)
        << "job " << record.id;
    EXPECT_NE(record.state, JobState::kPending) << "job " << record.id;
  }
  EXPECT_EQ(result.completed() + result.rejected() + result.degraded() +
                result.failed(),
            result.records.size());
}

TEST(SchedResilienceTest, NoFaultRunCompletesEverythingInOneAttempt) {
  const simnet::Platform platform = cluster(7);
  const hsi::HsiCube scene = test_scene();
  const std::vector<JobSpec> stream = mixed_stream();
  const ScheduleResult result = run_schedule(
      platform, scene, stream, resilient_config(), fast_options());

  EXPECT_EQ(result.completed(), stream.size());
  EXPECT_EQ(result.degraded(), 0u);
  EXPECT_EQ(result.failed(), 0u);
  EXPECT_TRUE(result.lost_ranks.empty());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const JobRecord& record = result.records[i];
    EXPECT_EQ(record.state, JobState::kCompleted) << "job " << record.id;
    ASSERT_EQ(record.attempts.size(), 1u) << "job " << record.id;
    const JobAttempt& attempt = record.attempts.front();
    EXPECT_EQ(attempt.attempt, 1) << "job " << record.id;
    EXPECT_EQ(attempt.outcome, "completed") << "job " << record.id;
    EXPECT_EQ(attempt.members, record.members) << "job " << record.id;
    // The baseline snapshot is always written, even with periodic
    // checkpointing disabled.
    EXPECT_GE(attempt.checkpoints, 1) << "job " << record.id;
    EXPECT_EQ(attempt.resumed_seq, 0) << "job " << record.id;
    const JobOutput solo = testing::run_solo(platform, scene, stream[i],
                                             record.members, fast_options());
    expect_output_matches_solo(result.outputs[i], solo, record.id);
  }
}

TEST(SchedResilienceTest, FaultyScheduleBitIdenticalAcrossRunsAndModes) {
  const simnet::Platform platform = cluster(7);
  const hsi::HsiCube scene = test_scene();
  const std::vector<JobSpec> stream = mixed_stream();
  const SchedulerConfig config = resilient_config(0.002);

  // Derive crash times inside the schedule's busy window from a no-fault
  // run (virtual time is deterministic, so the faulty runs share the
  // prefix up to each crash).
  const ScheduleResult probe =
      run_schedule(platform, scene, stream, config, fast_options());
  ASSERT_EQ(probe.completed(), stream.size());
  vmpi::Options faulty = fast_options();
  faulty.fault_plan.crashes.push_back({2, 0.25 * probe.makespan_s});
  faulty.fault_plan.crashes.push_back({5, 0.55 * probe.makespan_s});

  obs::Metrics::Snapshot stable_a;
  ScheduleResult first;
  {
    obs::ScopedMetrics scoped;
    first = run_schedule(platform, scene, stream, config, faulty);
    stable_a = obs::Metrics::stable_subset(obs::Metrics::instance().snapshot());
  }
  obs::Metrics::Snapshot stable_b;
  ScheduleResult second;
  {
    obs::ScopedMetrics scoped;
    second = run_schedule(platform, scene, stream, config, faulty);
    stable_b = obs::Metrics::stable_subset(obs::Metrics::instance().snapshot());
  }
  vmpi::Options faulty_threads = faulty;
  faulty_threads.exec_mode = vmpi::ExecMode::kThreadPerRank;
  obs::Metrics::Snapshot stable_c;
  ScheduleResult threads;
  {
    obs::ScopedMetrics scoped;
    threads = run_schedule(platform, scene, stream, config, faulty_threads);
    stable_c = obs::Metrics::stable_subset(obs::Metrics::instance().snapshot());
  }

  expect_records_equal(first.records, second.records);
  expect_records_equal(first.records, threads.records);
  expect_outputs_equal(first.outputs, second.outputs);
  expect_outputs_equal(first.outputs, threads.outputs);
  EXPECT_EQ(first.lost_ranks, second.lost_ranks);
  EXPECT_EQ(first.lost_ranks, threads.lost_ranks);
  EXPECT_EQ(first.makespan_s, threads.makespan_s);
  EXPECT_EQ(stable_a, stable_b);
  EXPECT_EQ(stable_a, stable_c);

  // The crashes actually landed and were survived: both ranks left the
  // pool, yet every job still ran to completion.
  EXPECT_EQ(first.lost_ranks, (std::vector<int>{2, 5}));
  EXPECT_EQ(first.completed(), stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const JobRecord& record = first.records[i];
    ASSERT_FALSE(record.attempts.empty()) << "job " << record.id;
    const JobOutput solo =
        testing::run_solo(platform, scene, stream[i],
                          chunk_owner_members(record, true), fast_options());
    expect_output_matches_solo(first.outputs[i], solo, record.id);
  }

  // Resilience counters live in the stable (golden-comparable) domain.
  bool saw_attempts = false;
  for (const auto& [name, value] : stable_a) {
    if (name == "sched.resilience.attempts") saw_attempts = true;
  }
  EXPECT_TRUE(saw_attempts);
}

TEST(SchedResilienceTest, CrashDuringRecoveryIsAbsorbedWithinTheAttempt) {
  const simnet::Platform platform = cluster(4);  // dispatcher + 3 workers
  const hsi::HsiCube scene = test_scene();
  const std::vector<JobSpec> stream = long_job(3);
  const SchedulerConfig config = resilient_config();

  const ScheduleResult probe =
      run_schedule(platform, scene, stream, config, fast_options());
  ASSERT_EQ(probe.completed(), 1u);
  const JobRecord& solo_record = probe.records[0];
  ASSERT_EQ(solo_record.members, (std::vector<int>{1, 2, 3}));
  const double span = solo_record.finish_s - solo_record.dispatch_s;

  // Worker 2 dies mid-job; worker 3 dies while the master is still
  // redistributing 2's chunks.  Both are absorbed inside attempt 1 (the
  // leader survives), leaving the master to finish the job alone.
  vmpi::Options faulty = fast_options();
  faulty.fault_plan.crashes.push_back(
      {2, solo_record.dispatch_s + 0.40 * span});
  faulty.fault_plan.crashes.push_back(
      {3, solo_record.dispatch_s + 0.45 * span});

  const ScheduleResult result =
      run_schedule(platform, scene, stream, config, faulty);
  EXPECT_EQ(result.completed(), 1u);
  const JobRecord& record = result.records[0];
  EXPECT_EQ(record.state, JobState::kCompleted);
  ASSERT_EQ(record.attempts.size(), 1u);
  EXPECT_EQ(result.lost_ranks, (std::vector<int>{2, 3}));
  EXPECT_GT(record.finish_s, solo_record.finish_s);

  const JobOutput solo = testing::run_solo(platform, scene, stream[0],
                                           solo_record.members, fast_options());
  expect_output_matches_solo(result.outputs[0], solo, record.id);
}

TEST(SchedResilienceTest, LeaderCrashResumesOnNarrowerGangBitIdentically) {
  const simnet::Platform platform = cluster(4);
  const hsi::HsiCube scene = test_scene();
  const std::vector<JobSpec> stream = long_job(3);

  // Calibrate a checkpoint cadence of roughly six commits per run.
  SchedulerConfig config = resilient_config();
  const ScheduleResult calib =
      run_schedule(platform, scene, stream, config, fast_options());
  ASSERT_EQ(calib.completed(), 1u);
  const double span = calib.records[0].finish_s - calib.records[0].dispatch_s;
  config.resilience.checkpoint_interval_s = span / 6.0;

  const ScheduleResult probe =
      run_schedule(platform, scene, stream, config, fast_options());
  ASSERT_EQ(probe.completed(), 1u);
  ASSERT_EQ(probe.records[0].members, (std::vector<int>{1, 2, 3}));
  ASSERT_GE(probe.records[0].attempts.front().checkpoints, 3);

  // Kill the gang *leader* three quarters in: the attempt dies, the
  // survivors report free, and the retry resumes the checkpoint on a
  // two-rank gang -- elastic resize across an attempt boundary.
  vmpi::Options faulty = fast_options();
  faulty.fault_plan.crashes.push_back(
      {1, probe.records[0].dispatch_s +
              0.75 * (probe.records[0].finish_s - probe.records[0].dispatch_s)});

  const ScheduleResult result =
      run_schedule(platform, scene, stream, config, faulty);
  EXPECT_EQ(result.completed(), 1u);
  const JobRecord& record = result.records[0];
  EXPECT_EQ(record.state, JobState::kCompleted);
  EXPECT_EQ(result.lost_ranks, (std::vector<int>{1}));
  ASSERT_EQ(record.attempts.size(), 2u);
  EXPECT_EQ(record.attempts[0].outcome, "leader crashed");
  EXPECT_EQ(record.attempts[1].outcome, "completed");
  EXPECT_EQ(record.attempts[1].width, 2);
  EXPECT_EQ(record.attempts[1].members, (std::vector<int>{2, 3}));
  // The retry waited out a positive backoff and replayed logged phases.
  EXPECT_GT(record.attempts[1].backoff_s, 0.0);
  EXPECT_GE(record.attempts[1].dispatch_s,
            record.attempts[0].end_s + record.attempts[1].backoff_s);
  EXPECT_GT(record.attempts[1].resumed_seq, 0);

  // The tentpole invariant: the resumed two-rank gang reproduces the
  // three-rank chunk partition's outputs bit for bit.
  const JobOutput solo =
      testing::run_solo(platform, scene, stream[0], record.attempts[0].members,
                        fast_options());
  expect_output_matches_solo(result.outputs[0], solo, record.id);
}

TEST(SchedResilienceTest, ColdRestartRecomputesOnSurvivorsBitIdentically) {
  const simnet::Platform platform = cluster(4);
  const hsi::HsiCube scene = test_scene();
  const std::vector<JobSpec> stream = long_job(3);
  SchedulerConfig config = resilient_config(0.0);
  config.resilience.resume_from_checkpoint = false;

  const ScheduleResult probe =
      run_schedule(platform, scene, stream, config, fast_options());
  ASSERT_EQ(probe.completed(), 1u);
  vmpi::Options faulty = fast_options();
  faulty.fault_plan.crashes.push_back(
      {1, probe.records[0].dispatch_s +
              0.5 * (probe.records[0].finish_s - probe.records[0].dispatch_s)});

  const ScheduleResult result =
      run_schedule(platform, scene, stream, config, faulty);
  EXPECT_EQ(result.completed(), 1u);
  const JobRecord& record = result.records[0];
  ASSERT_EQ(record.attempts.size(), 2u);
  // No store: nothing resumed, nothing checkpointed, retried from zero.
  EXPECT_EQ(record.attempts[1].resumed_seq, 0);
  EXPECT_EQ(record.attempts[0].checkpoints, 0);
  EXPECT_EQ(record.attempts[1].checkpoints, 0);
  // The retry re-partitioned on the surviving two-rank gang, so the oracle
  // is that gang's own uninterrupted run.
  const JobOutput solo =
      testing::run_solo(platform, scene, stream[0], record.attempts[1].members,
                        fast_options());
  expect_output_matches_solo(result.outputs[0], solo, record.id);
}

TEST(SchedResilienceTest, CrashInsideCheckpointWriteKeepsPreviousCommit) {
  const simnet::Platform platform = cluster(4);
  const hsi::HsiCube scene = test_scene();
  const std::vector<JobSpec> stream = long_job(3);

  SchedulerConfig config = resilient_config();
  const ScheduleResult calib =
      run_schedule(platform, scene, stream, config, fast_options());
  ASSERT_EQ(calib.completed(), 1u);
  const double span = calib.records[0].finish_s - calib.records[0].dispatch_s;
  config.resilience.checkpoint_interval_s = span / 6.0;

  const ScheduleResult probe =
      run_schedule(platform, scene, stream, config, fast_options());
  ASSERT_EQ(probe.completed(), 1u);
  const JobAttempt& attempt = probe.records[0].attempts.front();
  ASSERT_GE(attempt.checkpoints, 3);
  // Mean virtual cost of one checkpoint write (two compute halves).
  const double write_s =
      attempt.checkpoint_s / static_cast<double>(attempt.checkpoints);
  // Sweep crashes evenly over the *third* commit's whole write window and
  // a little past it: 16 instants from 1.0 write times before the commit
  // (the write begins, tearing the staged snapshot) to 0.25 after (the
  // commit survives).  Whatever side of the torn window each lands on, the
  // job must complete bit-identically from whichever snapshot actually
  // committed.
  const double commit_t = attempt.checkpoint_at_s[2];
  ASSERT_GT(commit_t - write_s, attempt.checkpoint_at_s[1]);
  const JobOutput solo =
      testing::run_solo(platform, scene, stream[0], probe.records[0].members,
                        fast_options());

  std::set<int> resumed_from;
  for (int k = 0; k < 16; ++k) {
    const double off = (1.0 - 1.25 * k / 15.0) * write_s;
    vmpi::Options faulty = fast_options();
    faulty.fault_plan.crashes.push_back({1, commit_t - off});
    const ScheduleResult result =
        run_schedule(platform, scene, stream, config, faulty);
    ASSERT_EQ(result.completed(), 1u) << "offset " << off;
    const JobRecord& record = result.records[0];
    ASSERT_EQ(record.attempts.size(), 2u) << "offset " << off;
    EXPECT_GT(record.attempts[1].resumed_seq, 0) << "offset " << off;
    resumed_from.insert(record.attempts[1].resumed_seq);
    expect_output_matches_solo(result.outputs[0], solo, record.id);
  }
  // The sweep lands on both sides of the torn window: some retries resume
  // the second commit, the rest the third.
  EXPECT_EQ(resumed_from.size(), 2u);
}

TEST(SchedResilienceTest, PreemptThenCrashOnResizedGangStaysBitIdentical) {
  const simnet::Platform platform = cluster(4);
  const hsi::HsiCube scene = test_scene();
  const std::vector<JobSpec> stream = long_job(3);

  SchedulerConfig config = resilient_config();
  const ScheduleResult calib =
      run_schedule(platform, scene, stream, config, fast_options());
  ASSERT_EQ(calib.completed(), 1u);
  const double span0 = calib.records[0].finish_s - calib.records[0].dispatch_s;
  config.resilience.checkpoint_interval_s = span0 / 6.0;
  // The deadline must ration the *checkpointing* attempt, so measure that
  // one before deriving it.
  const ScheduleResult timed =
      run_schedule(platform, scene, stream, config, fast_options());
  ASSERT_EQ(timed.completed(), 1u);
  const double span = timed.records[0].finish_s - timed.records[0].dispatch_s;
  config.resilience.retry.attempt_deadline_s = 0.6 * span;
  config.resilience.retry.max_attempts = 5;

  // With the deadline alone, attempt 1 preempts and a later attempt
  // finishes the checkpointed tail.
  const ScheduleResult probe =
      run_schedule(platform, scene, stream, config, fast_options());
  ASSERT_EQ(probe.completed(), 1u);
  ASSERT_GE(probe.records[0].attempts.size(), 2u);
  EXPECT_EQ(probe.records[0].attempts[0].outcome, "preempted");
  const JobAttempt& second = probe.records[0].attempts[1];

  // Now also crash the second attempt's leader midway: the third attempt
  // resumes the (twice-checkpointed) job on a smaller gang.
  vmpi::Options faulty = fast_options();
  faulty.fault_plan.crashes.push_back(
      {second.members.front(),
       second.dispatch_s + 0.5 * (second.end_s - second.dispatch_s)});

  const ScheduleResult result =
      run_schedule(platform, scene, stream, config, faulty);
  EXPECT_EQ(result.completed(), 1u);
  const JobRecord& record = result.records[0];
  ASSERT_GE(record.attempts.size(), 3u);
  EXPECT_EQ(record.attempts[0].outcome, "preempted");
  EXPECT_EQ(record.attempts[1].outcome, "leader crashed");
  EXPECT_EQ(record.attempts.back().outcome, "completed");
  EXPECT_LT(record.attempts.back().width, 3);
  EXPECT_GT(record.attempts.back().resumed_seq, 0);
  // Preemption requeues without backoff; the crash retry waits one out.
  EXPECT_EQ(record.attempts[1].backoff_s, 0.0);
  EXPECT_GT(record.attempts[2].backoff_s, 0.0);

  const JobOutput solo =
      testing::run_solo(platform, scene, stream[0], record.attempts[0].members,
                        fast_options());
  expect_output_matches_solo(result.outputs[0], solo, record.id);
}

TEST(SchedResilienceTest, ExhaustedRetriesDegradeWithCheckpointsElseFail) {
  const simnet::Platform platform = cluster(3);  // dispatcher + 2 workers
  const hsi::HsiCube scene = test_scene();
  std::vector<JobSpec> stream = long_job(2);
  JobSpec late;  // arrives after the pool has died
  late.id = 2;
  late.algorithm = core::Algorithm::kPpi;
  late.ranks = 1;
  late.targets = 3;
  late.skewers = 16;
  stream.push_back(late);

  SchedulerConfig config = resilient_config(0.0, 2);
  const ScheduleResult probe = run_schedule(
      platform, scene, {stream[0]}, config, fast_options());
  ASSERT_EQ(probe.completed(), 1u);
  const JobRecord& solo_record = probe.records[0];
  const double mid = solo_record.dispatch_s +
                     0.5 * (solo_record.finish_s - solo_record.dispatch_s);

  // Kill the first leader mid-attempt, then learn when the retry runs so
  // the second crash can kill the last worker inside attempt 2.  Adding a
  // later crash never perturbs the schedule before it fires.
  vmpi::Options one_crash = fast_options();
  one_crash.fault_plan.crashes.push_back({1, mid});
  const ScheduleResult staged =
      run_schedule(platform, scene, {stream[0]}, config, one_crash);
  ASSERT_EQ(staged.records[0].attempts.size(), 2u);
  const JobAttempt& retry = staged.records[0].attempts[1];
  ASSERT_EQ(retry.members, (std::vector<int>{2}));

  stream[1].arrival_s = retry.dispatch_s +
                        0.75 * (retry.end_s - retry.dispatch_s);
  vmpi::Options faulty = one_crash;
  faulty.fault_plan.crashes.push_back(
      {2, retry.dispatch_s + 0.5 * (retry.end_s - retry.dispatch_s)});

  const ScheduleResult result =
      run_schedule(platform, scene, stream, config, faulty);
  EXPECT_EQ(result.completed(), 0u);
  EXPECT_EQ(result.lost_ranks, (std::vector<int>{1, 2}));
  // Job 1 banked checkpoints (the baseline at minimum) before the cluster
  // died under it: degraded, not failed.
  EXPECT_EQ(result.records[0].state, JobState::kDegraded);
  EXPECT_EQ(result.degraded(), 1u);
  EXPECT_NE(result.records[0].error.find("no surviving workers"),
            std::string::npos)
      << result.records[0].error;
  // Job 2 arrived after the pool was gone and never ran: failed.
  EXPECT_EQ(result.records[1].state, JobState::kFailed);
  EXPECT_EQ(result.failed(), 1u);
  EXPECT_STREQ(to_string(result.records[0].state), "degraded");
  EXPECT_STREQ(to_string(result.records[1].state), "failed");

  // Without a checkpoint store the same collapse is a plain failure.  The
  // cold schedule paces differently (no checkpoint charges), so its crash
  // times are calibrated separately.
  SchedulerConfig cold = config;
  cold.resilience.resume_from_checkpoint = false;
  const ScheduleResult cold_probe =
      run_schedule(platform, scene, {stream[0]}, cold, fast_options());
  ASSERT_EQ(cold_probe.completed(), 1u);
  const JobRecord& cp = cold_probe.records[0];
  vmpi::Options cold_one = fast_options();
  cold_one.fault_plan.crashes.push_back(
      {1, cp.dispatch_s + 0.5 * (cp.finish_s - cp.dispatch_s)});
  const ScheduleResult cold_staged =
      run_schedule(platform, scene, {stream[0]}, cold, cold_one);
  ASSERT_EQ(cold_staged.records[0].attempts.size(), 2u);
  const JobAttempt& cold_retry = cold_staged.records[0].attempts[1];
  vmpi::Options cold_faulty = cold_one;
  cold_faulty.fault_plan.crashes.push_back(
      {2, cold_retry.dispatch_s +
              0.5 * (cold_retry.end_s - cold_retry.dispatch_s)});
  const ScheduleResult cold_result =
      run_schedule(platform, scene, {stream[0]}, cold, cold_faulty);
  EXPECT_EQ(cold_result.records[0].state, JobState::kFailed);
  EXPECT_EQ(cold_result.failed(), 1u);
}

TEST(SchedResilienceTest, AttemptTrackGroupsRenderRestartAndCheckpointMarks) {
  const simnet::Platform platform = cluster(4);
  const hsi::HsiCube scene = test_scene();
  const std::vector<JobSpec> stream = long_job(3);

  SchedulerConfig config = resilient_config();
  const ScheduleResult calib =
      run_schedule(platform, scene, stream, config, fast_options());
  ASSERT_EQ(calib.completed(), 1u);
  const double span0 = calib.records[0].finish_s - calib.records[0].dispatch_s;
  config.resilience.checkpoint_interval_s = span0 / 6.0;

  // A fault-free checkpointing run: one group per attempt, every commit a
  // "checkpoint" mark on the job lane.
  const ScheduleResult probe =
      run_schedule(platform, scene, stream, config, fast_options());
  ASSERT_EQ(probe.completed(), 1u);
  const JobAttempt& solo_attempt = probe.records[0].attempts.front();
  ASSERT_GE(solo_attempt.checkpoints, 3);
  const auto solo_groups = job_track_groups(probe);
  ASSERT_EQ(solo_groups.size(), 1u);
  EXPECT_EQ(solo_groups[0].label, "job:1/ATDCA#1");
  ASSERT_EQ(solo_groups[0].instants.size(),
            static_cast<std::size_t>(solo_attempt.checkpoints));
  for (const auto& mark : solo_groups[0].instants) {
    EXPECT_EQ(mark.label, "checkpoint");
  }
  const std::string solo_json =
      obs::chrome_trace_json(probe.report, solo_groups, {});
  EXPECT_NE(solo_json.find("\"name\":\"checkpoint\""), std::string::npos);
  EXPECT_NE(solo_json.find("\"cat\":\"resilience\""), std::string::npos);

  // A leader crash: the doomed attempt gets its own group (a dead leader
  // reports no marks), the resumed attempt leads with its restart mark.
  vmpi::Options faulty = fast_options();
  faulty.enable_trace = true;
  faulty.fault_plan.crashes.push_back(
      {1, probe.records[0].dispatch_s +
              0.75 * (probe.records[0].finish_s - probe.records[0].dispatch_s)});
  const ScheduleResult result =
      run_schedule(platform, scene, stream, config, faulty);
  ASSERT_EQ(result.completed(), 1u);
  ASSERT_EQ(result.records[0].attempts.size(), 2u);

  const auto groups = job_track_groups(result);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].label, "job:1/ATDCA#1");
  EXPECT_EQ(groups[1].label, "job:1/ATDCA#2");
  EXPECT_EQ(groups[0].members, result.records[0].attempts[0].members);
  EXPECT_EQ(groups[1].members, result.records[0].attempts[1].members);
  ASSERT_FALSE(groups[1].instants.empty());
  EXPECT_EQ(groups[1].instants.front().label, "restart (resumed)");
  EXPECT_EQ(groups[1].instants.front().t_s,
            result.records[0].attempts[1].dispatch_s);

  const std::string json = obs::chrome_trace_json(result.report, groups, {});
  EXPECT_NE(json.find("\"name\":\"job:1/ATDCA#2\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"restart (resumed)\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"resilience\""), std::string::npos);
}

TEST(SchedResilienceTest, RejectsMalformedClusterFaultPlans) {
  const simnet::Platform platform = cluster(4);
  const hsi::HsiCube scene = test_scene();
  const std::vector<JobSpec> stream = long_job(3);

  {  // A crash aimed at the dispatcher root is a plan bug.
    vmpi::Options options = fast_options();
    options.fault_plan.crashes.push_back({0, 0.5});
    try {
      (void)run_schedule(platform, scene, stream, resilient_config(), options);
      FAIL() << "expected hprs::Error";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("fault_plan.crashes[0].rank"),
                std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("dispatcher"), std::string::npos)
          << e.what();
    }
  }
  {  // Out-of-range ranks name the offending entry, not just "bad plan".
    vmpi::Options options = fast_options();
    options.fault_plan.crashes.push_back({1, 0.5});
    options.fault_plan.crashes.push_back({9, 0.5});
    try {
      (void)run_schedule(platform, scene, stream, resilient_config(), options);
      FAIL() << "expected hprs::Error";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("fault_plan.crashes[1].rank"),
                std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos)
          << e.what();
    }
  }
  {  // The base scheduler runs crash plans, so it validates them the same
     // way.
    vmpi::Options options = fast_options();
    options.fault_plan.crashes.push_back({0, 0.5});
    try {
      (void)run_schedule(platform, scene, stream, SchedulerConfig{}, options);
      FAIL() << "expected hprs::Error";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("fault_plan.crashes[0].rank"),
                std::string::npos)
          << e.what();
    }
  }
}

// Many-rank stress: a faulty resilient schedule on a Thunderhead-scale
// cluster stays bit-identical across repeated runs and both executor
// modes.  HPRS_STRESS_RANKS shrinks the world for sanitizer runs.
TEST(SchedResilienceTest, StressManyRanksBitIdenticalAcrossModes) {
  const int n = env_int_or("HPRS_STRESS_RANKS", 192, 8, 4096);
  const simnet::Platform platform = cluster(static_cast<std::size_t>(n));
  const hsi::HsiCube scene = test_scene();

  std::vector<JobSpec> stream = mixed_stream();
  for (JobSpec& spec : stream) {
    spec.ranks = std::max(2, n / 8);  // wide gangs across the big pool
  }
  SchedulerConfig config = resilient_config(0.002);

  const ScheduleResult probe =
      run_schedule(platform, scene, stream, config, fast_options());
  ASSERT_EQ(probe.completed(), stream.size());
  vmpi::Options faulty = fast_options();
  faulty.fault_plan.crashes.push_back({1, 0.20 * probe.makespan_s});
  faulty.fault_plan.crashes.push_back({n / 2, 0.45 * probe.makespan_s});
  faulty.fault_plan.crashes.push_back({n - 1, 0.70 * probe.makespan_s});

  const ScheduleResult first =
      run_schedule(platform, scene, stream, config, faulty);
  const ScheduleResult second =
      run_schedule(platform, scene, stream, config, faulty);
  vmpi::Options faulty_threads = faulty;
  faulty_threads.exec_mode = vmpi::ExecMode::kThreadPerRank;
  const ScheduleResult threads =
      run_schedule(platform, scene, stream, config, faulty_threads);

  expect_records_equal(first.records, second.records);
  expect_records_equal(first.records, threads.records);
  expect_outputs_equal(first.outputs, second.outputs);
  expect_outputs_equal(first.outputs, threads.outputs);
  EXPECT_EQ(first.lost_ranks, second.lost_ranks);
  EXPECT_EQ(first.lost_ranks, threads.lost_ranks);
  EXPECT_EQ(first.makespan_s, threads.makespan_s);
  EXPECT_EQ(first.completed(), stream.size());
}

TEST(SchedResilienceTest, CrashJustAfterReportingFreeLeavesThePool) {
  // A bursty 40-request tenant-mix trace on the fully heterogeneous NOW.
  hsi::SceneConfig scene_cfg;
  scene_cfg.rows = 32;
  scene_cfg.cols = 32;
  scene_cfg.bands = 32;
  const hsi::Scene scene = hsi::generate_wtc_scene(scene_cfg);
  const simnet::Platform platform = simnet::fully_heterogeneous();
  serve::TraceConfig trace;
  trace.shape = serve::TrafficShape::kBursty;
  trace.jobs = 40;
  trace.duration_s = 40.0 / 30.0;
  trace.seed = 7;
  trace.tenants = serve::default_tenant_mix();
  for (serve::TenantProfile& tenant : trace.tenants) {
    tenant.targets = 4;
    tenant.classes = 3;
    tenant.skewers = 32;
    tenant.replication = 8;
    tenant.max_ranks = std::min(tenant.max_ranks, 6);
    tenant.min_ranks = std::min(tenant.min_ranks, tenant.max_ranks);
  }
  const std::vector<JobSpec> stream = serve::generate_trace(trace);
  SchedulerConfig config;
  config.resilience.enabled = true;

  const ScheduleResult probe =
      run_schedule(platform, scene.cube, stream, config, vmpi::Options{});
  ASSERT_EQ(probe.completed(), stream.size());
  // Job 2's second member reports itself free at its attempt's end and
  // dies a hair later: at its next engine operation, the receive of its
  // next command.  The dispatcher still counts it free, so the crash
  // surfaces when it is commanded again (or drained at shutdown).
  const JobRecord& job2 = probe.records[1];
  ASSERT_EQ(job2.members.size(), 2u);
  const int victim = job2.members[1];
  const double crash_s = job2.attempts.front().end_s + 1e-4;

  std::vector<ScheduleResult> runs;
  for (const vmpi::ExecMode mode :
       {vmpi::ExecMode::kBoundedExecutor, vmpi::ExecMode::kThreadPerRank}) {
    vmpi::Options faulty;
    faulty.exec_mode = mode;
    faulty.fault_plan.crashes.push_back({victim, crash_s});
    ScheduleResult result;
    ASSERT_NO_THROW(
        result = run_schedule(platform, scene.cube, stream, config, faulty));
    EXPECT_EQ(result.lost_ranks, (std::vector<int>{victim}));
    expect_terminal_once(result);
    EXPECT_EQ(result.completed(), stream.size());
    runs.push_back(std::move(result));
  }
  expect_records_equal(runs[0].records, runs[1].records);
  expect_outputs_equal(runs[0].outputs, runs[1].outputs);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const JobRecord& record = runs[0].records[i];
    if (!record.completed()) continue;
    const JobOutput solo =
        testing::run_solo(platform, scene.cube, stream[i],
                          chunk_owner_members(record, /*resumed=*/true),
                          fast_options());
    expect_output_matches_solo(runs[0].outputs[i], solo, record.id);
  }
}

TEST(SchedResilienceTest, BatchedRidersAndTenantCapsSurviveALeaderCrash) {
  const simnet::Platform platform = cluster(7);  // dispatcher + 6 workers
  const hsi::HsiCube scene = test_scene();
  // Five "survey" requests for one shared computation (the first leads,
  // the next three ride its gang) under a cap of eight in-flight ranks,
  // which refuses the fifth; "tasking" traffic keeps other ranks busy.
  std::vector<JobSpec> stream;
  for (std::size_t k = 0; k < 5; ++k) {
    JobSpec spec = long_job(2).front();
    spec.id = k + 1;
    spec.arrival_s = 1e-4 * static_cast<double>(k);
    spec.tenant = "survey";
    stream.push_back(spec);
  }
  for (JobSpec spec : mixed_stream()) {
    spec.id += 10;
    spec.ranks = 2;
    spec.tenant = "tasking";
    stream.push_back(spec);
  }
  serve::stamp_batch_keys(stream, /*scene_uid=*/0xfeed);
  SchedulerConfig config = resilient_config();
  config.batching = true;
  config.quotas["survey"].max_inflight_ranks = 8;
  // A short backoff brings the crashed job's retry back while its former
  // riders' new gang still runs.
  config.resilience.retry.backoff_base_s = 1e-3;

  const ScheduleResult probe =
      run_schedule(platform, scene, stream, config, fast_options());
  const JobRecord& host = probe.records[0];
  ASSERT_EQ(host.state, JobState::kCompleted);
  ASSERT_EQ(host.batch_fanout, 3u);
  // A late "survey" request is admitted: every terminal path returned its
  // tenant's in-flight ranks.
  JobSpec late = stream[1];
  late.id = 99;
  late.arrival_s = probe.makespan_s + 1.0;
  stream.push_back(late);

  // Kill the batch host's leader mid-attempt: its riders are released and
  // re-enter like arrivals -- the earliest (job 2) leads a new gang and the
  // others, job 1's retry included, re-attach to it.
  vmpi::Options faulty = fast_options();
  faulty.fault_plan.crashes.push_back(
      {host.members.front(),
       host.dispatch_s + 0.5 * (host.finish_s - host.dispatch_s)});

  std::vector<ScheduleResult> runs;
  for (const vmpi::ExecMode mode :
       {vmpi::ExecMode::kBoundedExecutor, vmpi::ExecMode::kThreadPerRank}) {
    faulty.exec_mode = mode;
    ScheduleResult result;
    ASSERT_NO_THROW(result = run_schedule(platform, scene, stream, config,
                                          faulty));
    runs.push_back(std::move(result));
  }
  expect_records_equal(runs[0].records, runs[1].records);
  expect_outputs_equal(runs[0].outputs, runs[1].outputs);

  const ScheduleResult& result = runs[0];
  expect_terminal_once(result);
  EXPECT_EQ(result.lost_ranks, (std::vector<int>{host.members.front()}));
  EXPECT_EQ(result.records[0].attempts.front().outcome, "leader crashed");
  ASSERT_EQ(result.rejected(), 1u);
  EXPECT_TRUE(result.records[4].rejected);
  EXPECT_EQ(result.records[4].error.rfind("quota:inflight_ranks", 0), 0u)
      << result.records[4].error;
  EXPECT_EQ(result.records.back().state, JobState::kCompleted);
  EXPECT_EQ(result.completed(), stream.size() - 1);

  std::size_t riders = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const JobRecord& record = result.records[i];
    if (!record.completed()) continue;
    // A rider's output is its leader's, and both equal the solo program
    // run on the gang that froze the leader's chunks.
    std::size_t owner = i;
    if (record.batched_into != 0) {
      ++riders;
      owner = static_cast<std::size_t>(
          std::find_if(stream.begin(), stream.end(),
                       [&](const JobSpec& s) {
                         return s.id == record.batched_into;
                       }) -
          stream.begin());
      ASSERT_LT(owner, stream.size()) << "job " << record.id;
      EXPECT_EQ(result.records[owner].batched_into, 0u) << "job " << record.id;
      expect_output_matches_solo(result.outputs[i], result.outputs[owner],
                                 record.id);
    }
    const JobOutput solo =
        testing::run_solo(platform, scene, stream[i],
                          chunk_owner_members(result.records[owner], true),
                          fast_options());
    expect_output_matches_solo(result.outputs[i], solo, record.id);
  }
  EXPECT_EQ(riders, 3u);
  EXPECT_EQ(result.records[1].batched_into, 0u);
  EXPECT_EQ(result.records[1].batch_fanout, 3u);
  for (const std::size_t i : {0u, 2u, 3u}) {
    EXPECT_EQ(result.records[i].batched_into, 2u) << "job " << i + 1;
  }
}

}  // namespace
}  // namespace hprs::sched
