#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"
#include "core/runner.hpp"
#include "simnet/platform.hpp"
#include "test_scenes.hpp"

namespace hprs::core {
namespace {

bool found(const AlgorithmOutput& result, const testing::Plant& plant) {
  return std::any_of(result.targets.begin(), result.targets.end(),
                     [&](const PixelLocation& t) {
                       return t.row == plant.row && t.col == plant.col;
                     });
}

RunnerConfig small_config() {
  RunnerConfig cfg;
  cfg.algorithm = Algorithm::kPpi;
  cfg.targets = 6;
  cfg.skewers = 128;
  return cfg;
}

TEST(PpiTest, FindsPlantedExtremes) {
  auto cube = testing::striped_cube(48, 32, 32, 3);
  const auto plants = testing::plant_targets(cube, 3);
  const auto result =
      run_algorithm(simnet::fully_heterogeneous(), cube, small_config());
  for (const auto& plant : plants) {
    EXPECT_TRUE(found(result, plant))
        << "missed extreme at " << plant.row << "," << plant.col;
  }
}

TEST(PpiTest, ScoresAreSortedDescending) {
  const auto cube = testing::striped_cube(48, 32, 32, 3);
  const auto result =
      run_algorithm(simnet::thunderhead(4), cube, small_config());
  ASSERT_FALSE(result.scores.empty());
  for (std::size_t i = 1; i < result.scores.size(); ++i) {
    EXPECT_GE(result.scores[i - 1], result.scores[i]);
  }
  EXPECT_EQ(result.scores.size(), result.targets.size());
}

TEST(PpiTest, ResultIsIndependentOfProcessorCount) {
  const auto cube = testing::striped_cube(64, 24, 24, 3);
  const auto cfg = small_config();
  const auto r1 = run_algorithm(simnet::thunderhead(1), cube, cfg);
  const auto r8 = run_algorithm(simnet::thunderhead(8), cube, cfg);
  EXPECT_EQ(r1.targets, r8.targets);
  EXPECT_EQ(r1.scores, r8.scores);
}

TEST(PpiTest, IsDeterministicInTheSeed) {
  const auto cube = testing::striped_cube(48, 24, 24, 3);
  const auto a = run_algorithm(simnet::thunderhead(4), cube, small_config());
  const auto b = run_algorithm(simnet::thunderhead(4), cube, small_config());
  EXPECT_EQ(a.targets, b.targets);
  RunnerConfig other = small_config();
  other.seed = 999;
  const auto c = run_algorithm(simnet::thunderhead(4), cube, other);
  // A different skewer draw may change candidate order; only the top pixel
  // (a planted global extreme, if any) is expected to be stable -- here we
  // just require the runs to be valid.
  EXPECT_EQ(c.targets.size(), a.targets.size());
}

TEST(PpiTest, MoreSkewersCostMoreVirtualTime) {
  const auto cube = testing::striped_cube(48, 24, 24, 3);
  RunnerConfig few = small_config();
  few.skewers = 32;
  RunnerConfig many = small_config();
  many.skewers = 256;
  const auto platform = simnet::thunderhead(4);
  EXPECT_LT(run_algorithm(platform, cube, few).report.total_time,
            run_algorithm(platform, cube, many).report.total_time);
}

TEST(PpiTest, HeteroBeatsHomoOnHeterogeneousPlatform) {
  const auto cube = testing::striped_cube(64, 32, 32, 3);
  RunnerConfig het = small_config();
  het.replication = 64;
  RunnerConfig homo = het;
  homo.policy = PartitionPolicy::kHomogeneous;
  const auto platform = simnet::fully_heterogeneous();
  EXPECT_LT(run_algorithm(platform, cube, het).report.total_time,
            run_algorithm(platform, cube, homo).report.total_time * 0.6);
}

TEST(PpiTest, FaultTolerantOutputsMatchCollective) {
  // The collective driver recovers in place: two mid-run worker crashes
  // must reproduce the fault-free targets and purity counts (recovery must
  // never change the science).
  const auto cube = testing::striped_cube(48, 16, 24, 4);
  const auto platform = simnet::fully_heterogeneous();
  RunnerConfig cfg = small_config();
  cfg.replication = 64;  // projections, not the skewer shipment, dominate
  const auto collective = run_algorithm(platform, cube, cfg);
  const auto& clean = collective;
  EXPECT_TRUE(clean.report.fault_events.empty());

  // Both crashes land inside the projection phase of the clean run.
  vmpi::Options crashes;
  crashes.fault_plan.crashes.push_back({3, 0.25 * clean.report.total_time});
  crashes.fault_plan.crashes.push_back({11, 0.50 * clean.report.total_time});
  const auto crashed = run_algorithm(platform, cube, cfg, crashes);
  EXPECT_EQ(crashed.targets, collective.targets);
  EXPECT_EQ(crashed.scores, collective.scores);
  EXPECT_EQ(crashed.report.recovery.crashes, 2);
  EXPECT_GT(crashed.report.recovery.recomputed_flops, 0u);
}

TEST(PpiTest, ValidatesInputs) {
  const auto cube = testing::striped_cube(32, 16, 16, 2);
  RunnerConfig cfg = small_config();
  cfg.targets = 0;
  EXPECT_THROW((void)run_algorithm(simnet::thunderhead(2), cube, cfg), Error);
  cfg = small_config();
  cfg.skewers = 0;
  EXPECT_THROW((void)run_algorithm(simnet::thunderhead(2), cube, cfg), Error);
  cfg = small_config();
  EXPECT_THROW((void)run_algorithm(simnet::thunderhead(2), hsi::HsiCube(), cfg),
               Error);
}

}  // namespace
}  // namespace hprs::core
