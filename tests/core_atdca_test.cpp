#include "core/atdca.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"
#include "core/runner.hpp"
#include "simnet/platform.hpp"
#include "test_scenes.hpp"

namespace hprs::core {
namespace {

RunnerConfig atdca(std::size_t targets) {
  RunnerConfig cfg;
  cfg.algorithm = Algorithm::kAtdca;
  cfg.targets = targets;
  return cfg;
}

bool found(const AlgorithmOutput& result, const testing::Plant& plant) {
  return std::any_of(result.targets.begin(), result.targets.end(),
                     [&](const PixelLocation& t) {
                       return t.row == plant.row && t.col == plant.col;
                     });
}

TEST(AtdcaTest, FindsAllPlantedAnomalies) {
  auto cube = testing::striped_cube(48, 32, 32, 3);
  const auto plants = testing::plant_targets(cube, 4);
  RunnerConfig cfg = atdca(8);
  const auto result = run_algorithm(simnet::fully_heterogeneous(), cube, cfg);
  ASSERT_EQ(result.targets.size(), 8u);
  for (const auto& plant : plants) {
    EXPECT_TRUE(found(result, plant))
        << "missed anomaly at " << plant.row << "," << plant.col;
  }
}

TEST(AtdcaTest, FirstTargetIsTheBrightestPixel) {
  auto cube = testing::striped_cube(32, 32, 16, 2);
  // Make one pixel overwhelmingly bright.
  const auto px = cube.pixel(11, 13);
  for (auto& v : px) v = 50.0f;
  RunnerConfig cfg = atdca(2);
  const auto result = run_algorithm(simnet::thunderhead(4), cube, cfg);
  ASSERT_GE(result.targets.size(), 1u);
  EXPECT_EQ(result.targets[0].row, 11u);
  EXPECT_EQ(result.targets[0].col, 13u);
}

TEST(AtdcaTest, TargetsAreDistinctPixels) {
  auto cube = testing::striped_cube(40, 24, 24, 4);
  RunnerConfig cfg = atdca(6);
  const auto result = run_algorithm(simnet::fully_homogeneous(), cube, cfg);
  for (std::size_t i = 0; i < result.targets.size(); ++i) {
    for (std::size_t j = i + 1; j < result.targets.size(); ++j) {
      EXPECT_FALSE(result.targets[i] == result.targets[j])
          << "duplicate target " << i << " and " << j;
    }
  }
}

TEST(AtdcaTest, ResultIsIndependentOfProcessorCount) {
  auto cube = testing::striped_cube(64, 24, 24, 3);
  const auto plants = testing::plant_targets(cube, 3);
  (void)plants;
  RunnerConfig cfg = atdca(5);
  const auto r1 = run_algorithm(simnet::thunderhead(1), cube, cfg);
  const auto r4 = run_algorithm(simnet::thunderhead(4), cube, cfg);
  const auto r16 = run_algorithm(simnet::thunderhead(16), cube, cfg);
  EXPECT_EQ(r1.targets, r4.targets);
  EXPECT_EQ(r1.targets, r16.targets);
}

TEST(AtdcaTest, PolicyDoesNotChangeTheAnswer) {
  auto cube = testing::striped_cube(64, 24, 24, 3);
  RunnerConfig het = atdca(5);
  het.policy = PartitionPolicy::kHeterogeneous;
  RunnerConfig homo = het;
  homo.policy = PartitionPolicy::kHomogeneous;
  const auto platform = simnet::fully_heterogeneous();
  EXPECT_EQ(run_algorithm(platform, cube, het).targets,
            run_algorithm(platform, cube, homo).targets);
}

TEST(AtdcaTest, HeteroBeatsHomoOnHeterogeneousPlatform) {
  auto cube = testing::striped_cube(64, 32, 32, 3);
  RunnerConfig het = atdca(6);
  het.replication = 64;
  RunnerConfig homo = het;
  homo.policy = PartitionPolicy::kHomogeneous;
  const auto platform = simnet::fully_heterogeneous();
  const auto t_het = run_algorithm(platform, cube, het).report.total_time;
  const auto t_homo = run_algorithm(platform, cube, homo).report.total_time;
  EXPECT_LT(t_het, t_homo * 0.6);
}

TEST(AtdcaTest, ReportAccountsTheRun) {
  auto cube = testing::striped_cube(48, 24, 24, 3);
  RunnerConfig cfg = atdca(4);
  const auto result = run_algorithm(simnet::fully_heterogeneous(), cube, cfg);
  EXPECT_GT(result.report.total_time, 0.0);
  EXPECT_EQ(result.report.ranks.size(), 16u);
  EXPECT_GT(result.report.total_flops(), 0u);
  EXPECT_GT(result.report.com(), 0.0);
  EXPECT_GE(result.report.imbalance_all(), 1.0);
}

TEST(AtdcaTest, ReplicationScalesComputeLinearly) {
  auto cube = testing::striped_cube(48, 24, 24, 3);
  RunnerConfig cfg = atdca(4);
  const auto base = run_algorithm(simnet::thunderhead(1), cube, cfg);
  cfg.replication = 10;
  const auto scaled = run_algorithm(simnet::thunderhead(1), cube, cfg);
  EXPECT_NEAR(scaled.report.total_time / base.report.total_time, 10.0, 0.5);
}

TEST(AtdcaTest, SingleTargetRequestsJustTheBrightest) {
  auto cube = testing::striped_cube(32, 16, 16, 2);
  RunnerConfig cfg = atdca(1);
  const auto result = run_algorithm(simnet::thunderhead(2), cube, cfg);
  EXPECT_EQ(result.targets.size(), 1u);
}

TEST(AtdcaTest, ValidatesInputs) {
  auto cube = testing::striped_cube(32, 16, 16, 2);
  RunnerConfig cfg = atdca(0);
  EXPECT_THROW((void)run_algorithm(simnet::thunderhead(2), cube, cfg), Error);
  cfg.targets = 2;
  EXPECT_THROW((void)run_algorithm(simnet::thunderhead(2), hsi::HsiCube(), cfg),
               Error);
}

TEST(AtdcaTest, WorkloadModelGrowsWithTargets) {
  const auto small = atdca_workload(224, 2);
  const auto large = atdca_workload(224, 18);
  EXPECT_LT(small.flops_per_pixel, large.flops_per_pixel);
  EXPECT_EQ(small.bytes_per_pixel, 224u * sizeof(float));
}

}  // namespace
}  // namespace hprs::core
