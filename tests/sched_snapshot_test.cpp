// Counter-plane snapshots through the scheduler: with the snapshot service
// on, a scheduled run carries a timeline with per-job ("job:<id>/<ALG>")
// and dispatcher scopes whose stable series are bit-identical across
// repeated runs and both executor modes; enabling snapshots never changes
// the schedule itself; an injected mid-run counter drift is caught and
// localized by the timeline diff even though the end-of-run states agree;
// the last dispatcher sample records how the schedule ended, crashes
// included; and the property holds at fleet scale (HPRS_STRESS_RANKS
// shrinks the 192-rank world for sanitizer runs).
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "obs/report_diff.hpp"
#include "obs/snapshot.hpp"
#include "sched/scheduler.hpp"
#include "test_scenes.hpp"

namespace hprs::sched {
namespace {

simnet::Platform cluster(std::size_t n) {
  std::vector<simnet::ProcessorSpec> procs;
  for (std::size_t i = 0; i < n; ++i) {
    procs.push_back(simnet::ProcessorSpec{
        "p" + std::to_string(i), "t",
        0.001 * static_cast<double>(1 + i % 3), 1024, 512, 0});
  }
  return simnet::Platform("snap-now", std::move(procs), {{10.0}});
}

vmpi::Options snap_options(
    vmpi::ExecMode mode = vmpi::ExecMode::kBoundedExecutor) {
  vmpi::Options o;
  o.per_message_latency_s = 0.0;
  o.deadlock_timeout_s = 120.0;
  o.exec_mode = mode;
  o.snapshot.enabled = true;
  // Small enough that even the first, shortest job crosses a cadence point
  // before its last collective.
  o.snapshot.interval_s = 0.00005;
  return o;
}

std::vector<JobSpec> mixed_stream() {
  std::vector<JobSpec> stream;
  constexpr core::Algorithm kCycle[] = {
      core::Algorithm::kAtdca, core::Algorithm::kPct, core::Algorithm::kPpi,
      core::Algorithm::kUfcls, core::Algorithm::kMorph};
  for (std::size_t k = 0; k < 5; ++k) {
    JobSpec spec;
    spec.id = k + 1;
    spec.algorithm = kCycle[k];
    spec.arrival_s = 0.002 * static_cast<double>(k);
    spec.ranks = 2 + static_cast<int>(k % 2);
    spec.targets = 4;
    spec.classes = 3;
    spec.morph_iterations = 2;
    spec.kernel_radius = 1;
    spec.skewers = 32;
    stream.push_back(spec);
  }
  return stream;
}

TEST(SchedSnapshotTest, TimelineHasJobAndDispatcherScopes) {
  const simnet::Platform platform = cluster(7);
  const hsi::HsiCube scene = testing::striped_cube(32, 16, 24, 4);
  const auto result = run_schedule(platform, scene, mixed_stream(),
                                   SchedulerConfig{}, snap_options());
  ASSERT_EQ(result.completed(), 5u);
  ASSERT_FALSE(result.report.snapshots.empty());

  bool saw_dispatcher = false;
  bool saw_job = false;
  for (const auto& sample : result.report.snapshots.samples()) {
    if (sample.scope == "dispatcher") saw_dispatcher = true;
    if (sample.scope == "job:1/ATDCA") saw_job = true;
  }
  EXPECT_TRUE(saw_dispatcher);
  EXPECT_TRUE(saw_job);
}

TEST(SchedSnapshotTest, EnablingSnapshotsDoesNotChangeTheSchedule) {
  const simnet::Platform platform = cluster(7);
  const hsi::HsiCube scene = testing::striped_cube(32, 16, 24, 4);
  const std::vector<JobSpec> stream = mixed_stream();

  vmpi::Options plain = snap_options();
  plain.snapshot.enabled = false;
  const auto without = run_schedule(platform, scene, stream,
                                    SchedulerConfig{}, plain);
  const auto with = run_schedule(platform, scene, stream, SchedulerConfig{},
                                 snap_options());

  EXPECT_TRUE(without.report.snapshots.empty());
  ASSERT_EQ(without.records.size(), with.records.size());
  for (std::size_t i = 0; i < without.records.size(); ++i) {
    EXPECT_EQ(without.records[i].dispatch_s, with.records[i].dispatch_s);
    EXPECT_EQ(without.records[i].finish_s, with.records[i].finish_s);
    EXPECT_EQ(without.records[i].members, with.records[i].members);
  }
  EXPECT_EQ(without.makespan_s, with.makespan_s);
}

TEST(SchedSnapshotTest, TimelineBitIdenticalAcrossRunsAndExecutorModes) {
  const simnet::Platform platform = cluster(7);
  const hsi::HsiCube scene = testing::striped_cube(32, 16, 24, 4);
  const std::vector<JobSpec> stream = mixed_stream();

  const auto first = run_schedule(platform, scene, stream, SchedulerConfig{},
                                  snap_options());
  const auto second = run_schedule(platform, scene, stream, SchedulerConfig{},
                                   snap_options());
  const auto threads =
      run_schedule(platform, scene, stream, SchedulerConfig{},
                   snap_options(vmpi::ExecMode::kThreadPerRank));

  ASSERT_FALSE(first.report.snapshots.empty());
  const std::string a = obs::snapshot_timeline_json(first.report.snapshots);
  EXPECT_EQ(a, obs::snapshot_timeline_json(second.report.snapshots));
  EXPECT_EQ(a, obs::snapshot_timeline_json(threads.report.snapshots));
}

TEST(SchedSnapshotTest, MidRunDriftCaughtWhileEndStateMatches) {
  const simnet::Platform platform = cluster(7);
  const hsi::HsiCube scene = testing::striped_cube(32, 16, 24, 4);
  const auto result = run_schedule(platform, scene, mixed_stream(),
                                   SchedulerConfig{}, snap_options());
  const auto golden = obs::snapshot_timeline_flat(result.report.snapshots);

  // Find a dispatcher counter with at least one later sample in the same
  // scope, and bump it by one: a mid-run drift that has "recovered" by the
  // end of the run.
  std::string drift_key;
  auto drifted = golden;
  for (const auto& [key, token] : golden) {
    if (key.rfind("dispatcher|000001|jobs.", 0) == 0 &&
        token.find('.') == std::string::npos) {
      drift_key = key;
      drifted[key] = std::to_string(std::stoull(token) + 1);
      break;
    }
  }
  ASSERT_FALSE(drift_key.empty()) << "no mid-run dispatcher counter sampled";

  // End-state comparison is blind to the drift: the last dispatcher sample
  // (and every other final sample) is untouched.
  const auto& samples = result.report.snapshots.samples();
  const auto* last = &samples.front();
  for (const auto& sample : samples) {
    if (sample.scope == "dispatcher") last = &sample;
  }
  char prefix[32];
  std::snprintf(prefix, sizeof(prefix), "dispatcher|%06d|", last->seq);
  for (const auto& [key, token] : golden) {
    if (key.rfind(prefix, 0) == 0) {
      EXPECT_EQ(token, drifted.at(key));
    }
  }

  const auto diff = obs::diff_timelines(golden, drifted);
  EXPECT_FALSE(diff.ok());
  ASSERT_EQ(diff.diff.mismatches.size(), 1u);
  EXPECT_EQ(diff.diff.mismatches[0].key, drift_key);
  EXPECT_NE(diff.first_divergence.find("\"dispatcher\""), std::string::npos)
      << diff.first_divergence;
  EXPECT_NE(diff.first_divergence.find("sample 1"), std::string::npos);
}

TEST(SchedSnapshotTest, LastDispatcherSampleRecordsHowTheScheduleEnded) {
  // A worker of job 1 crashes halfway through the job.  The dispatcher's
  // closing sample must account for every dispatched gang, hold no running
  // gang, and count every rank the schedule lost.
  const simnet::Platform platform = cluster(7);
  const hsi::HsiCube scene = testing::striped_cube(32, 16, 24, 4);
  const std::vector<JobSpec> stream = mixed_stream();
  const auto probe = run_schedule(platform, scene, stream, SchedulerConfig{},
                                  snap_options());
  const JobRecord& first = probe.records[0];
  ASSERT_TRUE(first.completed());
  ASSERT_GE(first.members.size(), 2u);
  const double midpoint =
      first.dispatch_s + 0.5 * (first.finish_s - first.dispatch_s);

  std::string timelines[2];
  int run = 0;
  for (const vmpi::ExecMode mode :
       {vmpi::ExecMode::kBoundedExecutor, vmpi::ExecMode::kThreadPerRank}) {
    vmpi::Options options = snap_options(mode);
    options.fault_plan.crashes.push_back({first.members[1], midpoint});
    const auto result =
        run_schedule(platform, scene, stream, SchedulerConfig{}, options);
    ASSERT_EQ(result.report.recovery.crashes, 1);
    ASSERT_EQ(result.lost_ranks, std::vector<int>{first.members[1]});

    const obs::SnapshotSample* last = nullptr;
    for (const auto& sample : result.report.snapshots.samples()) {
      if (sample.scope == "dispatcher") last = &sample;
    }
    ASSERT_NE(last, nullptr);
    std::map<std::string, obs::Pvar> pvars;
    for (const obs::Pvar& pvar : last->pvars.sorted()) {
      pvars[pvar.name] = pvar;
    }
    EXPECT_EQ(pvars.at("jobs.completed").count,
              pvars.at("jobs.dispatched").count);
    EXPECT_EQ(pvars.at("gangs.running").value, 0.0);
    EXPECT_EQ(pvars.at("workers.lost").count, result.lost_ranks.size());
    timelines[run++] = obs::snapshot_timeline_json(result.report.snapshots);
  }
  EXPECT_EQ(timelines[0], timelines[1]);
}

// Fleet-scale stress: wide gangs on a Thunderhead-sized cluster, snapshots
// on.  The stable timeline must stay bit-identical across runs and both
// executor modes even with hundreds of rank threads interleaving.
TEST(SchedSnapshotTest, StressManyRanksTimelineBitIdentical) {
  const int n = env_int_or("HPRS_STRESS_RANKS", 192, 8, 4096);
  const simnet::Platform platform = cluster(static_cast<std::size_t>(n));
  const hsi::HsiCube scene = testing::striped_cube(32, 16, 24, 4);

  std::vector<JobSpec> stream = mixed_stream();
  for (JobSpec& spec : stream) {
    spec.ranks = std::max(2, n / 8);
  }

  const auto first = run_schedule(platform, scene, stream, SchedulerConfig{},
                                  snap_options());
  ASSERT_EQ(first.completed(), stream.size());
  ASSERT_FALSE(first.report.snapshots.empty());
  const auto second = run_schedule(platform, scene, stream, SchedulerConfig{},
                                   snap_options());
  const auto threads =
      run_schedule(platform, scene, stream, SchedulerConfig{},
                   snap_options(vmpi::ExecMode::kThreadPerRank));

  const std::string a = obs::snapshot_timeline_json(first.report.snapshots);
  EXPECT_EQ(a, obs::snapshot_timeline_json(second.report.snapshots));
  EXPECT_EQ(a, obs::snapshot_timeline_json(threads.report.snapshots));
}

}  // namespace
}  // namespace hprs::sched
