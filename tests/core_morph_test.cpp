#include <gtest/gtest.h>

#include <map>

#include "common/error.hpp"
#include "core/runner.hpp"
#include "simnet/platform.hpp"
#include "test_scenes.hpp"

namespace hprs::core {
namespace {

double stripe_accuracy(const AlgorithmOutput& result, std::size_t rows,
                       std::size_t cols, std::size_t classes) {
  std::size_t correct = 0;
  for (std::size_t cls = 0; cls < classes; ++cls) {
    const std::size_t r_begin = cls * rows / classes;
    const std::size_t r_end = (cls + 1) * rows / classes;
    std::map<std::uint16_t, std::size_t> votes;
    for (std::size_t r = r_begin; r < r_end; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        ++votes[result.labels[r * cols + c]];
      }
    }
    std::size_t best = 0;
    for (const auto& [label, n] : votes) best = std::max(best, n);
    correct += best;
  }
  return static_cast<double>(correct) / static_cast<double>(rows * cols);
}

RunnerConfig small_config(std::size_t classes) {
  RunnerConfig cfg;
  cfg.algorithm = Algorithm::kMorph;
  cfg.classes = classes;
  cfg.morph_iterations = 2;
  cfg.kernel_radius = 1;
  return cfg;
}

TEST(MorphTest, SeparatesWellSeparatedStripes) {
  const auto cube = testing::striped_cube(48, 32, 32, 3);
  const auto result =
      run_algorithm(simnet::fully_heterogeneous(), cube, small_config(3));
  ASSERT_EQ(result.labels.size(), cube.pixel_count());
  EXPECT_GT(stripe_accuracy(result, 48, 32, 3), 0.9);
}

TEST(MorphTest, UniformImageCollapsesToOneClass) {
  hsi::HsiCube cube(24, 24, 16);
  for (auto& v : cube.samples()) v = 0.5f;
  const auto result =
      run_algorithm(simnet::thunderhead(2), cube, small_config(4));
  EXPECT_EQ(result.label_count, 1u);
}

TEST(MorphTest, LabelsStayBelowLabelCount) {
  const auto cube = testing::striped_cube(36, 24, 24, 3);
  const auto result =
      run_algorithm(simnet::thunderhead(3), cube, small_config(3));
  for (const auto label : result.labels) {
    ASSERT_LT(label, result.label_count);
  }
}

TEST(MorphTest, AccuracyHoldsAcrossProcessorCounts) {
  const auto cube = testing::striped_cube(64, 24, 24, 3);
  for (const std::size_t p : {1u, 4u, 8u}) {
    const auto result =
        run_algorithm(simnet::thunderhead(p), cube, small_config(3));
    EXPECT_GT(stripe_accuracy(result, 64, 24, 3), 0.9) << "P=" << p;
  }
}

TEST(MorphTest, OverlapAndExchangeModesAgreeAlmostEverywhere) {
  // The two halo strategies are different approximations near partition
  // seams; their label images must agree on the vast majority of pixels.
  const auto cube = testing::striped_cube(64, 24, 24, 3);
  RunnerConfig overlap = small_config(3);
  overlap.morph_iterations = 3;
  RunnerConfig exchange = overlap;
  exchange.morph_overlap_borders = false;
  const auto a = run_algorithm(simnet::thunderhead(8), cube, overlap);
  const auto b = run_algorithm(simnet::thunderhead(8), cube, exchange);
  ASSERT_EQ(a.labels.size(), b.labels.size());
  std::size_t agree = 0;
  for (std::size_t i = 0; i < a.labels.size(); ++i) {
    if (a.labels[i] == b.labels[i]) ++agree;
  }
  EXPECT_GT(static_cast<double>(agree) / static_cast<double>(a.labels.size()),
            0.97);
}

TEST(MorphTest, ExchangeModeCostsMoreCommunication) {
  const auto cube = testing::striped_cube(64, 24, 24, 3);
  RunnerConfig overlap = small_config(3);
  overlap.morph_iterations = 4;
  RunnerConfig exchange = overlap;
  exchange.morph_overlap_borders = false;
  const auto platform = simnet::fully_heterogeneous();
  const auto a = run_algorithm(platform, cube, overlap);
  const auto b = run_algorithm(platform, cube, exchange);
  EXPECT_LT(a.report.total_bytes_moved(), b.report.total_bytes_moved());
}

TEST(MorphTest, SingleProcessorAndParallelRunsAgreeOnTheClassification) {
  // Label ids are arbitrary cluster indices that may differ across
  // partitionings; the classification itself (majority structure per
  // stripe) must hold at every processor count.
  const auto cube = testing::striped_cube(48, 16, 24, 3);
  const auto cfg = small_config(3);
  const auto r1 = run_algorithm(simnet::thunderhead(1), cube, cfg);
  const auto r4 = run_algorithm(simnet::thunderhead(4), cube, cfg);
  EXPECT_GT(stripe_accuracy(r1, 48, 16, 3), 0.9);
  EXPECT_GT(stripe_accuracy(r4, 48, 16, 3), 0.9);
}

TEST(MorphTest, HeteroBeatsHomoOnHeterogeneousPlatform) {
  const auto cube = testing::striped_cube(64, 32, 32, 3);
  RunnerConfig het = small_config(3);
  het.replication = 64;
  RunnerConfig homo = het;
  homo.policy = PartitionPolicy::kHomogeneous;
  const auto platform = simnet::fully_heterogeneous();
  EXPECT_LT(run_algorithm(platform, cube, het).report.total_time,
            run_algorithm(platform, cube, homo).report.total_time * 0.6);
}

TEST(MorphTest, MorphSeqShareIsSmall) {
  // The paper's Table 6: MORPH has by far the smallest sequential
  // component of the four algorithms.
  const auto cube = testing::striped_cube(64, 32, 32, 3);
  RunnerConfig cfg = small_config(3);
  cfg.replication = 64;
  const auto result = run_algorithm(simnet::fully_heterogeneous(), cube, cfg);
  EXPECT_LT(result.report.seq(), 0.05 * result.report.total_time);
}

TEST(MorphTest, ValidatesInputs) {
  const auto cube = testing::striped_cube(32, 16, 16, 2);
  RunnerConfig cfg = small_config(2);
  cfg.classes = 0;
  EXPECT_THROW((void)run_algorithm(simnet::thunderhead(2), cube, cfg), Error);
  cfg = small_config(2);
  cfg.morph_iterations = 0;
  EXPECT_THROW((void)run_algorithm(simnet::thunderhead(2), cube, cfg), Error);
  cfg = small_config(2);
  cfg.kernel_radius = 0;
  EXPECT_THROW((void)run_algorithm(simnet::thunderhead(2), cube, cfg), Error);
  cfg = small_config(2);
  EXPECT_THROW((void)run_algorithm(simnet::thunderhead(2), hsi::HsiCube(), cfg),
               Error);
}

class MorphKernelSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MorphKernelSweep, LargerKernelsCostMoreVirtualTime) {
  const auto cube = testing::striped_cube(48, 24, 24, 3);
  RunnerConfig small = small_config(3);
  small.kernel_radius = 1;
  RunnerConfig large = small;
  large.kernel_radius = GetParam();
  const auto platform = simnet::thunderhead(4);
  const auto t_small = run_algorithm(platform, cube, small).report.total_time;
  const auto t_large = run_algorithm(platform, cube, large).report.total_time;
  EXPECT_GT(t_large, t_small);
}

INSTANTIATE_TEST_SUITE_P(Radii, MorphKernelSweep, ::testing::Values(2, 3));

}  // namespace
}  // namespace hprs::core
