#include "sched/cost_model.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "test_scenes.hpp"

namespace hprs::sched {
namespace {

JobSpec small_job(std::size_t replication = 1) {
  JobSpec spec;
  spec.id = 1;
  spec.algorithm = core::Algorithm::kAtdca;
  spec.ranks = 2;
  spec.targets = 4;
  spec.replication = replication;
  return spec;
}

TEST(CostModelAccelTest, AcceleratorFreeEstimatesAreUntouched) {
  // The accel-aware branch must not perturb a single bit of the historic
  // arithmetic: compare against the hand-computed classic formula.
  const simnet::Platform now = simnet::fully_homogeneous();
  const hsi::HsiCube scene = testing::striped_cube(16, 16, 32, 4);
  const JobSpec spec = small_job();
  const std::vector<int> members{1, 2};

  const core::WorkloadModel model = job_workload(spec, scene);
  const double pixels = static_cast<double>(scene.pixel_count());
  const double speed_sum = now.speed(1) + now.speed(2);
  double expect = model.flops_per_pixel * pixels * 1e-6 / speed_sum +
                  model.seq_flops * 1e-6 / now.speed(1);
  double round_ms = 24.0 * 8e-6 * now.link_ms_per_mbit(1, 2);
  expect += model.sync_rounds * round_ms * 1e-3;

  const JobEstimate est = estimate_job(now, members, spec, scene);
  EXPECT_EQ(est.seconds, expect);
}

TEST(CostModelAccelTest, LaunchLatencyMakesTinyJobsPreferPlainCpus) {
  // On a tiny scene the accelerated pair's per-round launch latency
  // swamps its 40x compute advantage; on a big scene it pays off.
  const simnet::Platform p = simnet::accelerated_now(4, 4);
  const std::vector<int> cpus{0, 1};
  const std::vector<int> accels{4, 5};

  const hsi::HsiCube tiny = testing::striped_cube(8, 8, 16, 2);
  const JobSpec spec = small_job();
  EXPECT_LT(estimate_job(p, cpus, spec, tiny).seconds,
            estimate_job(p, accels, spec, tiny).seconds);

  const hsi::HsiCube big = testing::striped_cube(64, 64, 64, 4);
  const JobSpec heavy = small_job(/*replication=*/64);
  EXPECT_GT(estimate_job(p, cpus, heavy, big).seconds,
            estimate_job(p, accels, heavy, big).seconds);
}

TEST(CostModelAccelTest, RefineMembersSwapsTinyJobsOntoCpus) {
  const simnet::Platform p = simnet::accelerated_now(4, 4);
  const std::vector<int> pool{0, 1, 2, 3, 4, 5, 6, 7};

  // Best-fit picks the fastest ranks -- the accelerators (ranks 4..7).
  const hsi::HsiCube tiny = testing::striped_cube(8, 8, 16, 2);
  const JobSpec spec = small_job();
  const auto refined = refine_members(p, pool, {4, 5}, spec, tiny);
  EXPECT_EQ(refined, (std::vector<int>{0, 1}));

  // A heavy job keeps the accelerated pick.
  const hsi::HsiCube big = testing::striped_cube(64, 64, 64, 4);
  const JobSpec heavy = small_job(/*replication=*/64);
  const auto kept = refine_members(p, pool, {4, 5}, heavy, big);
  EXPECT_EQ(kept, (std::vector<int>{4, 5}));
}

TEST(CostModelAccelTest, RefineMembersIsIdentityWithoutAccelerators) {
  const simnet::Platform now = simnet::fully_heterogeneous();
  const hsi::HsiCube scene = testing::striped_cube(16, 16, 32, 4);
  const std::vector<int> pool{1, 2, 3, 4, 5};
  const std::vector<int> picked{2, 3};
  EXPECT_EQ(refine_members(now, pool, picked, small_job(), scene), picked);
}

TEST(CostModelAccelTest, RefineMembersKeepsThePickWhenCpusAreScarce) {
  // Only one plain CPU in the pool: no equally-wide CPU gang exists, so
  // the accelerated pick stands even for a tiny job.
  const simnet::Platform p = simnet::accelerated_now(1, 4);
  const hsi::HsiCube tiny = testing::striped_cube(8, 8, 16, 2);
  const auto kept =
      refine_members(p, {0, 1, 2, 3, 4}, {1, 2}, small_job(), tiny);
  EXPECT_EQ(kept, (std::vector<int>{1, 2}));
}

}  // namespace
}  // namespace hprs::sched
