#include "core/ufcls.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"
#include "core/runner.hpp"
#include "simnet/platform.hpp"
#include "test_scenes.hpp"

namespace hprs::core {
namespace {

RunnerConfig ufcls(std::size_t targets) {
  RunnerConfig cfg;
  cfg.algorithm = Algorithm::kUfcls;
  cfg.targets = targets;
  return cfg;
}

bool found(const AlgorithmOutput& result, const testing::Plant& plant) {
  return std::any_of(result.targets.begin(), result.targets.end(),
                     [&](const PixelLocation& t) {
                       return t.row == plant.row && t.col == plant.col;
                     });
}

TEST(UfclsTest, FindsStrongPlantedAnomalies) {
  auto cube = testing::striped_cube(48, 32, 32, 3);
  const auto plants = testing::plant_targets(cube, 3);
  RunnerConfig cfg = ufcls(8);
  const auto result = run_algorithm(simnet::fully_heterogeneous(), cube, cfg);
  ASSERT_EQ(result.targets.size(), 8u);
  for (const auto& plant : plants) {
    EXPECT_TRUE(found(result, plant))
        << "missed anomaly at " << plant.row << "," << plant.col;
  }
}

TEST(UfclsTest, FirstTargetIsTheBrightestPixel) {
  auto cube = testing::striped_cube(32, 32, 16, 2);
  const auto px = cube.pixel(3, 29);
  for (auto& v : px) v = 40.0f;
  RunnerConfig cfg = ufcls(3);
  const auto result = run_algorithm(simnet::thunderhead(4), cube, cfg);
  ASSERT_GE(result.targets.size(), 1u);
  EXPECT_EQ(result.targets[0].row, 3u);
  EXPECT_EQ(result.targets[0].col, 29u);
}

TEST(UfclsTest, SecondTargetMaximizesReconstructionError) {
  // Two-material cube: after the brightest pixel (material A), the pixel
  // with the worst single-endmember fit must come from material B.
  auto cube = testing::striped_cube(32, 16, 24, 2, /*noise=*/0.0005);
  RunnerConfig cfg = ufcls(2);
  const auto result = run_algorithm(simnet::thunderhead(2), cube, cfg);
  ASSERT_EQ(result.targets.size(), 2u);
  const bool first_is_top = result.targets[0].row < 16;
  const bool second_is_top = result.targets[1].row < 16;
  EXPECT_NE(first_is_top, second_is_top)
      << "the two targets should come from different stripes";
}

TEST(UfclsTest, ResultIsIndependentOfProcessorCount) {
  auto cube = testing::striped_cube(64, 24, 24, 3);
  RunnerConfig cfg = ufcls(4);
  const auto r1 = run_algorithm(simnet::thunderhead(1), cube, cfg);
  const auto r8 = run_algorithm(simnet::thunderhead(8), cube, cfg);
  EXPECT_EQ(r1.targets, r8.targets);
}

TEST(UfclsTest, HeteroBeatsHomoOnHeterogeneousPlatform) {
  auto cube = testing::striped_cube(64, 32, 32, 3);
  RunnerConfig het = ufcls(5);
  het.replication = 64;
  RunnerConfig homo = het;
  homo.policy = PartitionPolicy::kHomogeneous;
  const auto platform = simnet::fully_heterogeneous();
  EXPECT_LT(run_algorithm(platform, cube, het).report.total_time,
            run_algorithm(platform, cube, homo).report.total_time * 0.6);
}

TEST(UfclsTest, TargetsAreDistinct) {
  auto cube = testing::striped_cube(40, 24, 24, 4);
  RunnerConfig cfg = ufcls(6);
  const auto result = run_algorithm(simnet::fully_homogeneous(), cube, cfg);
  for (std::size_t i = 0; i < result.targets.size(); ++i) {
    for (std::size_t j = i + 1; j < result.targets.size(); ++j) {
      EXPECT_FALSE(result.targets[i] == result.targets[j]);
    }
  }
}

TEST(UfclsTest, ValidatesInputs) {
  auto cube = testing::striped_cube(32, 16, 16, 2);
  RunnerConfig cfg = ufcls(0);
  EXPECT_THROW((void)run_algorithm(simnet::thunderhead(2), cube, cfg), Error);
  cfg.targets = 2;
  EXPECT_THROW((void)run_algorithm(simnet::thunderhead(2), hsi::HsiCube(), cfg),
               Error);
}

TEST(UfclsTest, RunsCheaperPerIterationThanItsWorkloadBound) {
  // ufcls_workload assumes two active-set rounds per pixel; the measured
  // flops must stay within a small factor of the model.
  auto cube = testing::striped_cube(32, 16, 24, 2);
  RunnerConfig cfg = ufcls(4);
  const auto result = run_algorithm(simnet::thunderhead(1), cube, cfg);
  const auto model = ufcls_workload(24, 4);
  const double modeled =
      model.flops_per_pixel * static_cast<double>(cube.pixel_count());
  EXPECT_LT(static_cast<double>(result.report.total_flops()), 3.0 * modeled);
}

}  // namespace
}  // namespace hprs::core
