#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/error.hpp"
#include "core/runner.hpp"
#include "simnet/platform.hpp"
#include "test_scenes.hpp"

namespace hprs::core {
namespace {

RunnerConfig pct(std::size_t classes) {
  RunnerConfig cfg;
  cfg.algorithm = Algorithm::kPct;
  cfg.classes = classes;
  return cfg;
}

/// Fraction of pixels whose label matches the majority label of their
/// stripe (unsupervised accuracy for the striped test cube).
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

TEST(PctTest, SeparatesWellSeparatedStripes) {
  const auto cube = testing::striped_cube(48, 32, 32, 3);
  RunnerConfig cfg = pct(3);
  const auto result = run_algorithm(simnet::fully_heterogeneous(), cube, cfg);
  ASSERT_EQ(result.labels.size(), cube.pixel_count());
  EXPECT_GE(result.label_count, 2u);
  EXPECT_GT(stripe_accuracy(result, 48, 32, 3), 0.9);
}

TEST(PctTest, LabelsStayBelowLabelCount) {
  const auto cube = testing::striped_cube(32, 24, 24, 4);
  RunnerConfig cfg = pct(4);
  const auto result = run_algorithm(simnet::thunderhead(4), cube, cfg);
  for (const auto label : result.labels) {
    ASSERT_LT(label, result.label_count);
  }
}

TEST(PctTest, UniformImageCollapsesToOneClass) {
  hsi::HsiCube cube(24, 24, 16);
  for (auto& v : cube.samples()) v = 0.5f;
  RunnerConfig cfg = pct(5);
  const auto result = run_algorithm(simnet::thunderhead(2), cube, cfg);
  EXPECT_EQ(result.label_count, 1u);
  const std::set<std::uint16_t> labels(result.labels.begin(),
                                       result.labels.end());
  EXPECT_EQ(labels.size(), 1u);
}

TEST(PctTest, AccuracyHoldsAcrossProcessorCounts) {
  const auto cube = testing::striped_cube(64, 24, 24, 3);
  RunnerConfig cfg = pct(3);
  for (const std::size_t p : {1u, 4u, 16u}) {
    const auto result = run_algorithm(simnet::thunderhead(p), cube, cfg);
    EXPECT_GT(stripe_accuracy(result, 64, 24, 3), 0.9) << "P=" << p;
  }
}

TEST(PctTest, SequentialEigenStepShowsUpAsSeqTime) {
  const auto cube = testing::striped_cube(48, 24, 32, 3);
  RunnerConfig cfg = pct(3);
  const auto result = run_algorithm(simnet::fully_heterogeneous(), cube, cfg);
  EXPECT_GT(result.report.seq(), 0.0);
}

TEST(PctTest, HeteroBeatsHomoOnHeterogeneousPlatform) {
  const auto cube = testing::striped_cube(64, 32, 32, 3);
  RunnerConfig het = pct(3);
  het.replication = 64;
  RunnerConfig homo = het;
  homo.policy = PartitionPolicy::kHomogeneous;
  const auto platform = simnet::fully_heterogeneous();
  EXPECT_LT(run_algorithm(platform, cube, het).report.total_time,
            run_algorithm(platform, cube, homo).report.total_time * 0.7);
}

TEST(PctTest, ValidatesInputs) {
  const auto cube = testing::striped_cube(32, 16, 16, 2);
  RunnerConfig cfg = pct(0);
  EXPECT_THROW((void)run_algorithm(simnet::thunderhead(2), cube, cfg), Error);
  cfg.classes = 64;  // more components than the 16 bands
  EXPECT_THROW((void)run_algorithm(simnet::thunderhead(2), cube, cfg), Error);
  cfg.classes = 2;
  EXPECT_THROW((void)run_algorithm(simnet::thunderhead(2), hsi::HsiCube(), cfg),
               Error);
}

class PctClassSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PctClassSweep, RecoversTheStripes) {
  const std::size_t classes = GetParam();
  const auto cube = testing::striped_cube(60, 20, 40, classes);
  RunnerConfig cfg = pct(classes);
  const auto result = run_algorithm(simnet::thunderhead(4), cube, cfg);
  EXPECT_GT(stripe_accuracy(result, 60, 20, classes), 0.85)
      << classes << " stripes";
}

INSTANTIATE_TEST_SUITE_P(StripeCounts, PctClassSweep,
                         ::testing::Values(2, 3, 4, 5));

}  // namespace
}  // namespace hprs::core
