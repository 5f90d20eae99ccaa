// End-to-end scheduler properties: bit-identical schedules, records, and
// stable metrics across repeated runs and both executor modes; per-job
// numeric outputs bit-identical to a solo run of the same algorithm on the
// same rank subset; FIFO ordering; record consistency; conservative
// backfill never starving the queue head; admission rejections that do not
// block the rest of the stream; crash plans without resilience (a worker
// crash absorbed, a leader crash failing only its job).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sched/scheduler.hpp"
#include "sched_solo_oracle.hpp"
#include "test_scenes.hpp"
#include "vmpi/comm.hpp"

namespace hprs::sched {
namespace {

simnet::Platform cluster(std::size_t n) {
  std::vector<simnet::ProcessorSpec> procs;
  for (std::size_t i = 0; i < n; ++i) {
    procs.push_back(simnet::ProcessorSpec{
        "p" + std::to_string(i), "t",
        0.001 * static_cast<double>(1 + i % 3), 1024, 512, 0});
  }
  return simnet::Platform("sched-now", std::move(procs), {{10.0}});
}

vmpi::Options fast_options(
    vmpi::ExecMode mode = vmpi::ExecMode::kBoundedExecutor) {
  vmpi::Options o;
  o.per_message_latency_s = 0.0;
  o.deadlock_timeout_s = 120.0;
  o.exec_mode = mode;
  return o;
}

/// A mixed five-algorithm stream with staggered arrivals.
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

TEST(SchedSchedulerTest, BitIdenticalAcrossRunsAndExecutorModes) {
  const simnet::Platform platform = cluster(7);
  const hsi::HsiCube scene = testing::striped_cube(32, 16, 24, 4);
  const std::vector<JobSpec> stream = mixed_stream();

  obs::Metrics::Snapshot stable_a;
  ScheduleResult first;
  {
    obs::ScopedMetrics scoped;
    first = run_schedule(platform, scene, stream, {}, fast_options());
    stable_a = obs::Metrics::stable_subset(obs::Metrics::instance().snapshot());
  }
  EXPECT_EQ(first.completed(), stream.size());

  obs::Metrics::Snapshot stable_b;
  ScheduleResult second;
  {
    obs::ScopedMetrics scoped;
    second = run_schedule(platform, scene, stream, {}, fast_options());
    stable_b = obs::Metrics::stable_subset(obs::Metrics::instance().snapshot());
  }
  obs::Metrics::Snapshot stable_c;
  ScheduleResult threads;
  {
    obs::ScopedMetrics scoped;
    threads = run_schedule(platform, scene, stream, {},
                           fast_options(vmpi::ExecMode::kThreadPerRank));
    stable_c = obs::Metrics::stable_subset(obs::Metrics::instance().snapshot());
  }

  expect_records_equal(first.records, second.records);
  expect_records_equal(first.records, threads.records);
  expect_outputs_equal(first.outputs, second.outputs);
  expect_outputs_equal(first.outputs, threads.outputs);
  EXPECT_EQ(first.makespan_s, second.makespan_s);
  EXPECT_EQ(first.makespan_s, threads.makespan_s);
  EXPECT_EQ(first.utilization, threads.utilization);
  EXPECT_EQ(stable_a, stable_b);
  EXPECT_EQ(stable_a, stable_c);

  // Per-job stable metrics are published under the job id.
  bool saw_job_metric = false;
  for (const auto& [name, value] : stable_a) {
    if (name == "sched.job.1.makespan_s") saw_job_metric = true;
  }
  EXPECT_TRUE(saw_job_metric);
}

// Multi-segment regression: on a segmented platform, concurrent gangs'
// cross-segment transfers must not share host-order-dependent backbone
// state (the engine scopes xlink reservations per communicator).  A
// single-segment cluster cannot catch this, so this variant runs the
// stream on the paper's 4-segment fully heterogeneous NOW.
TEST(SchedSchedulerTest, BitIdenticalAcrossModesOnMultiSegmentPlatform) {
  const simnet::Platform platform = simnet::fully_heterogeneous();
  ASSERT_GT(platform.segment_count(), 1u);
  const hsi::HsiCube scene = testing::striped_cube(32, 16, 24, 4);
  const std::vector<JobSpec> stream = mixed_stream();

  const ScheduleResult bounded =
      run_schedule(platform, scene, stream, {}, fast_options());
  const ScheduleResult bounded2 =
      run_schedule(platform, scene, stream, {}, fast_options());
  const ScheduleResult threads = run_schedule(
      platform, scene, stream, {},
      fast_options(vmpi::ExecMode::kThreadPerRank));

  EXPECT_EQ(bounded.completed(), stream.size());
  expect_records_equal(bounded.records, bounded2.records);
  expect_records_equal(bounded.records, threads.records);
  expect_outputs_equal(bounded.outputs, threads.outputs);
  EXPECT_EQ(bounded.makespan_s, threads.makespan_s);
  EXPECT_EQ(bounded.utilization, threads.utilization);
}

TEST(SchedSchedulerTest, JobOutputsMatchSoloRunsOnSameSubset) {
  const simnet::Platform platform = cluster(7);
  const hsi::HsiCube scene = testing::striped_cube(32, 16, 24, 4);
  const std::vector<JobSpec> stream = mixed_stream();
  const ScheduleResult result =
      run_schedule(platform, scene, stream, {}, fast_options());
  ASSERT_EQ(result.completed(), stream.size());

  for (std::size_t i = 0; i < stream.size(); ++i) {
    const JobRecord& record = result.records[i];
    ASSERT_TRUE(record.completed()) << "job " << record.id;
    const JobOutput solo = testing::run_solo(platform, scene, stream[i],
                                             record.members, fast_options());
    EXPECT_EQ(result.outputs[i].targets, solo.targets) << "job " << record.id;
    EXPECT_EQ(result.outputs[i].scores, solo.scores) << "job " << record.id;
    EXPECT_EQ(result.outputs[i].labels, solo.labels) << "job " << record.id;
    EXPECT_EQ(result.outputs[i].label_count, solo.label_count)
        << "job " << record.id;
  }
}

TEST(SchedSchedulerTest, RecordsAreConsistent) {
  const simnet::Platform platform = cluster(7);
  const hsi::HsiCube scene = testing::striped_cube(32, 16, 24, 4);
  const ScheduleResult result =
      run_schedule(platform, scene, mixed_stream(), {}, fast_options());
  EXPECT_GT(result.makespan_s, 0.0);
  EXPECT_GT(result.utilization, 0.0);
  EXPECT_LE(result.utilization, 1.0);
  for (const JobRecord& record : result.records) {
    ASSERT_TRUE(record.completed()) << "job " << record.id;
    EXPECT_GE(record.dispatch_s, record.arrival_s) << "job " << record.id;
    EXPECT_GT(record.finish_s, record.dispatch_s) << "job " << record.id;
    EXPECT_GE(record.queue_wait_s(), 0.0) << "job " << record.id;
    EXPECT_GT(record.utilization(), 0.0) << "job " << record.id;
    EXPECT_LE(record.utilization(), 1.0) << "job " << record.id;
    EXPECT_GT(record.est_seconds, 0.0) << "job " << record.id;
    EXPECT_FALSE(record.members.empty()) << "job " << record.id;
  }
}

TEST(SchedSchedulerTest, FifoDispatchesInArrivalOrder) {
  const simnet::Platform platform = cluster(7);
  const hsi::HsiCube scene = testing::striped_cube(32, 16, 24, 4);
  SchedulerConfig config;
  config.policy = Policy::kFifo;
  const ScheduleResult result =
      run_schedule(platform, scene, mixed_stream(), config, fast_options());
  ASSERT_EQ(result.completed(), 5u);
  // Arrival order is id order in mixed_stream(); FIFO must dispatch
  // monotonically in that order.
  for (std::size_t i = 1; i < result.records.size(); ++i) {
    EXPECT_GE(result.records[i].dispatch_s, result.records[i - 1].dispatch_s)
        << "job " << result.records[i].id;
  }
}

TEST(SchedSchedulerTest, BackfillRunsSmallJobsWithoutStarvingTheHead) {
  const simnet::Platform platform = cluster(5);  // dispatcher + 4 workers
  const hsi::HsiCube scene = testing::striped_cube(32, 16, 24, 4);
  std::vector<JobSpec> stream;
  JobSpec big;  // long 2-rank job holds half the pool
  big.id = 1;
  big.algorithm = core::Algorithm::kAtdca;
  big.arrival_s = 0.0;
  big.ranks = 2;
  big.targets = 4;
  big.replication = 50;
  stream.push_back(big);
  JobSpec head;  // full-width job must queue behind `big`
  head.id = 2;
  head.algorithm = core::Algorithm::kPct;
  head.arrival_s = 0.001;
  head.ranks = 4;
  head.classes = 3;
  stream.push_back(head);
  for (std::uint64_t k = 0; k < 3; ++k) {  // short narrow jobs backfill
    JobSpec small;
    small.id = 3 + k;
    small.algorithm = core::Algorithm::kPpi;
    small.arrival_s = 0.002;
    small.ranks = 1;
    small.targets = 3;
    small.skewers = 16;
    stream.push_back(small);
  }

  const ScheduleResult result =
      run_schedule(platform, scene, stream, {}, fast_options());
  ASSERT_EQ(result.completed(), stream.size());
  const JobRecord& head_record = result.records[1];
  // The head was dispatched (no starvation) after the big job drained...
  EXPECT_GE(head_record.dispatch_s, result.records[0].finish_s);
  // ...while at least one later-arriving small job backfilled ahead of it.
  bool backfilled = false;
  for (std::size_t i = 2; i < stream.size(); ++i) {
    if (result.records[i].dispatch_s < head_record.dispatch_s) {
      backfilled = true;
    }
  }
  EXPECT_TRUE(backfilled);
}

TEST(SchedSchedulerTest, TrackGroupsCoverEveryCompletedJob) {
  const simnet::Platform platform = cluster(7);
  const hsi::HsiCube scene = testing::striped_cube(32, 16, 24, 4);
  vmpi::Options options = fast_options();
  options.enable_trace = true;
  const ScheduleResult result =
      run_schedule(platform, scene, mixed_stream(), {}, options);
  const auto groups = job_track_groups(result);
  ASSERT_EQ(groups.size(), result.completed());
  EXPECT_EQ(groups[0].label, "job:1/ATDCA");
  EXPECT_EQ(groups[1].label, "job:2/PCT");
  for (std::size_t i = 0; i < groups.size(); ++i) {
    EXPECT_EQ(groups[i].members, result.records[i].members);
    EXPECT_EQ(groups[i].begin_s, result.records[i].dispatch_s);
    EXPECT_EQ(groups[i].end_s, result.records[i].finish_s);
  }
  // The traced schedule renders with one named process per job.
  const std::string json = obs::chrome_trace_json(result.report, groups, {});
  for (const auto& group : groups) {
    EXPECT_NE(json.find("\"name\":\"" + group.label + "\""),
              std::string::npos);
  }
}

TEST(SchedSchedulerTest, RejectedJobDoesNotBlockTheStream) {
  const simnet::Platform platform = cluster(5);
  const hsi::HsiCube scene = testing::striped_cube(32, 16, 24, 4);
  std::vector<JobSpec> stream = mixed_stream();
  stream.resize(2);
  JobSpec wide;
  wide.id = 99;
  wide.algorithm = core::Algorithm::kUfcls;
  wide.arrival_s = 0.0;
  wide.ranks = 10;  // pool has 4 workers
  stream.push_back(wide);

  const ScheduleResult result =
      run_schedule(platform, scene, stream, {}, fast_options());
  EXPECT_EQ(result.completed(), 2u);
  EXPECT_EQ(result.rejected(), 1u);
  const JobRecord& rejected = result.records[2];
  EXPECT_TRUE(rejected.rejected);
  EXPECT_FALSE(rejected.completed());
  EXPECT_NE(rejected.error.find("job 99"), std::string::npos)
      << rejected.error;
  EXPECT_NE(rejected.error.find("worker pool"), std::string::npos)
      << rejected.error;
}

TEST(SchedSchedulerTest, AdmissionRejectsInvalidParametersByName) {
  const simnet::Platform platform = cluster(7);
  const hsi::HsiCube scene = testing::striped_cube(32, 16, 24, 4);
  std::vector<JobSpec> stream;
  JobSpec pct;  // more classes than the cube has bands
  pct.algorithm = core::Algorithm::kPct;
  pct.classes = scene.bands() + 1;
  stream.push_back(pct);
  JobSpec atdca;
  atdca.algorithm = core::Algorithm::kAtdca;
  atdca.targets = 0;
  stream.push_back(atdca);
  JobSpec morph;
  morph.algorithm = core::Algorithm::kMorph;
  morph.classes = 3;
  morph.morph_iterations = 2;
  morph.kernel_radius = 0;
  stream.push_back(morph);
  JobSpec ppi;
  ppi.algorithm = core::Algorithm::kPpi;
  ppi.targets = 4;
  ppi.skewers = 0;
  stream.push_back(ppi);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    stream[i].id = i + 1;
    stream[i].ranks = 2;
  }
  stream.push_back(mixed_stream().front());  // a valid ATDCA job
  stream.back().id = 5;
  const char* const fields[] = {"classes = 25", "targets = 0",
                                "kernel_radius = 0", "skewers = 0"};

  for (const vmpi::ExecMode mode :
       {vmpi::ExecMode::kBoundedExecutor, vmpi::ExecMode::kThreadPerRank}) {
    const ScheduleResult result =
        run_schedule(platform, scene, stream, {}, fast_options(mode));
    EXPECT_EQ(result.rejected(), 4u);
    EXPECT_EQ(result.completed(), 1u);
    for (std::size_t i = 0; i < 4; ++i) {
      const JobRecord& record = result.records[i];
      EXPECT_EQ(record.state, JobState::kRejected) << "job " << record.id;
      EXPECT_NE(record.error.find(fields[i]), std::string::npos)
          << record.error;
    }
    const JobRecord& valid = result.records[4];
    ASSERT_TRUE(valid.completed());
    const JobOutput solo = testing::run_solo(platform, scene, stream[4],
                                             valid.members, fast_options());
    EXPECT_EQ(result.outputs[4].targets, solo.targets);
    EXPECT_FALSE(solo.targets.empty());
  }
}

TEST(SchedSchedulerTest, GangErrorFailsOnlyItsJobByName) {
  // The two fastest workers, which the hetero policy picks first, have the
  // least memory: admission (roomiest subset) accepts the job, but its
  // gang's WEA cannot fit the scene.  Every member of that gang gets the
  // same error, the job fails with it, and the stream goes on.
  std::vector<simnet::ProcessorSpec> procs;
  for (std::size_t i = 0; i < 5; ++i) {
    const bool fast = i == 1 || i == 2;
    procs.push_back(simnet::ProcessorSpec{"p" + std::to_string(i), "t",
                                          fast ? 0.001 : 0.004,
                                          fast ? 1u : 1024u, 512, 0});
  }
  const simnet::Platform platform("sched-mem", std::move(procs), {{10.0}});
  const hsi::HsiCube scene = testing::striped_cube(32, 16, 24, 4);
  std::vector<JobSpec> stream = mixed_stream();
  stream.resize(1);
  stream[0].ranks = 2;
  stream[0].memory_fraction = 0.01;  // 10 KiB per fast rank, 48 KiB scene
  JobSpec later = mixed_stream()[1];
  later.arrival_s = 1.0;
  stream.push_back(later);

  for (const vmpi::ExecMode mode :
       {vmpi::ExecMode::kBoundedExecutor, vmpi::ExecMode::kThreadPerRank}) {
    const ScheduleResult result =
        run_schedule(platform, scene, stream, {}, fast_options(mode));
    const JobRecord& failed = result.records[0];
    EXPECT_EQ(failed.state, JobState::kFailed);
    EXPECT_EQ(failed.members, (std::vector<int>{1, 2}));
    EXPECT_NE(failed.error.find("memory"), std::string::npos) << failed.error;
    EXPECT_TRUE(result.records[1].completed());
  }
}

TEST(SchedSchedulerTest, BaseModeSurvivesWorkerAndLeaderCrashes) {
  // Jobs 1 (ATDCA, 3 ranks) and 2 (PCT, 2 ranks) arrive together and run
  // side by side.  Halfway through each, job 1 loses a worker and job 2
  // its leader.  Without resilience each job runs one attempt: job 1's
  // gang recovers in place and still matches the solo oracle, job 2 fails
  // by name, both ranks leave the pool, and the rest of the stream runs on
  // the survivors.
  const simnet::Platform platform = cluster(7);
  const hsi::HsiCube scene = testing::striped_cube(32, 16, 24, 4);
  const std::vector<JobSpec> stream = mixed_stream();
  const ScheduleResult probe =
      run_schedule(platform, scene, stream, {}, fast_options());
  const JobRecord& first = probe.records[0];
  const JobRecord& second = probe.records[1];
  ASSERT_TRUE(first.completed());
  ASSERT_TRUE(second.completed());
  const auto midpoint = [](const JobRecord& r) {
    return r.dispatch_s + 0.5 * (r.finish_s - r.dispatch_s);
  };
  // Both gangs are running before either crash fires.
  ASSERT_LT(std::max(first.dispatch_s, second.dispatch_s),
            std::min(midpoint(first), midpoint(second)));
  const int worker = first.members[1];
  const int leader = second.members[0];

  ScheduleResult runs[2];
  int run = 0;
  for (const vmpi::ExecMode mode :
       {vmpi::ExecMode::kBoundedExecutor, vmpi::ExecMode::kThreadPerRank}) {
    vmpi::Options options = fast_options(mode);
    options.fault_plan.crashes.push_back({worker, midpoint(first)});
    options.fault_plan.crashes.push_back({leader, midpoint(second)});
    const ScheduleResult result =
        run_schedule(platform, scene, stream, {}, options);

    EXPECT_EQ(result.report.recovery.crashes, 2);
    EXPECT_GT(result.report.recovery.recomputed_flops, 0u);
    const JobRecord& absorbed = result.records[0];
    ASSERT_TRUE(absorbed.completed());
    EXPECT_EQ(absorbed.members, first.members);
    const JobOutput solo = testing::run_solo(platform, scene, stream[0],
                                             absorbed.members, fast_options());
    EXPECT_EQ(result.outputs[0].targets, solo.targets);
    EXPECT_FALSE(solo.targets.empty());

    const JobRecord& failed = result.records[1];
    EXPECT_EQ(failed.state, JobState::kFailed);
    EXPECT_EQ(failed.error, "leader crashed");
    EXPECT_EQ(result.failed(), 1u);
    EXPECT_EQ(result.lost_ranks,
              (std::vector<int>{std::min(worker, leader),
                                std::max(worker, leader)}));
    for (std::size_t i = 2; i < stream.size(); ++i) {
      const JobRecord& record = result.records[i];
      ASSERT_TRUE(record.completed()) << "job " << record.id;
      EXPECT_EQ(std::count(record.members.begin(), record.members.end(),
                           worker) +
                    std::count(record.members.begin(), record.members.end(),
                               leader),
                0)
          << "job " << record.id;
    }
    runs[run++] = result;
  }
  expect_records_equal(runs[0].records, runs[1].records);
  expect_outputs_equal(runs[0].outputs, runs[1].outputs);
}

}  // namespace
}  // namespace hprs::sched
