#include "core/runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/error.hpp"
#include "simnet/platform.hpp"
#include "test_scenes.hpp"

namespace hprs::core {
namespace {

TEST(RunnerNamesTest, AlgorithmNamesAreStable) {
  EXPECT_STREQ(to_string(Algorithm::kAtdca), "ATDCA");
  EXPECT_STREQ(to_string(Algorithm::kUfcls), "UFCLS");
  EXPECT_STREQ(to_string(Algorithm::kPct), "PCT");
  EXPECT_STREQ(to_string(Algorithm::kMorph), "MORPH");
  EXPECT_STREQ(to_string(Algorithm::kPpi), "PPI");
  for (const Algorithm a : {Algorithm::kAtdca, Algorithm::kUfcls,
                            Algorithm::kPct, Algorithm::kMorph,
                            Algorithm::kPpi}) {
    EXPECT_EQ(parse_algorithm(to_string(a)), a);
  }
  try {
    (void)parse_algorithm("atdca");
    ADD_FAILURE() << "a lower-case name was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("'atdca'"), std::string::npos)
        << e.what();
  }
}

TEST(RunnerNamesTest, DisplayNamesFollowThePaper) {
  EXPECT_EQ(display_name(Algorithm::kAtdca, PartitionPolicy::kHeterogeneous),
            "Hetero-ATDCA");
  EXPECT_EQ(display_name(Algorithm::kMorph, PartitionPolicy::kHomogeneous),
            "Homo-MORPH");
}

struct RunnerCase {
  Algorithm algorithm;
  PartitionPolicy policy;
};

class RunnerSweep : public ::testing::TestWithParam<RunnerCase> {};

TEST_P(RunnerSweep, DispatchesAndProducesTheRightOutput) {
  const auto [algorithm, policy] = GetParam();
  const auto cube = testing::striped_cube(48, 24, 24, 3);
  RunnerConfig cfg;
  cfg.algorithm = algorithm;
  cfg.policy = policy;
  cfg.targets = 4;
  cfg.classes = 3;
  cfg.morph_iterations = 2;
  cfg.kernel_radius = 1;
  cfg.skewers = 32;
  const auto out = run_algorithm(simnet::fully_heterogeneous(), cube, cfg);

  EXPECT_GT(out.report.total_time, 0.0);
  EXPECT_EQ(out.report.ranks.size(), 16u);
  const bool is_detector = algorithm == Algorithm::kAtdca ||
                           algorithm == Algorithm::kUfcls ||
                           algorithm == Algorithm::kPpi;
  EXPECT_EQ(out.scores.size(), algorithm == Algorithm::kPpi ? 4u : 0u);
  if (is_detector) {
    EXPECT_EQ(out.targets.size(), 4u);
    EXPECT_TRUE(out.labels.empty());
  } else {
    EXPECT_EQ(out.labels.size(), cube.pixel_count());
    EXPECT_GE(out.label_count, 1u);
    EXPECT_TRUE(out.targets.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, RunnerSweep,
    ::testing::Values(
        RunnerCase{Algorithm::kAtdca, PartitionPolicy::kHeterogeneous},
        RunnerCase{Algorithm::kAtdca, PartitionPolicy::kHomogeneous},
        RunnerCase{Algorithm::kUfcls, PartitionPolicy::kHeterogeneous},
        RunnerCase{Algorithm::kUfcls, PartitionPolicy::kHomogeneous},
        RunnerCase{Algorithm::kPct, PartitionPolicy::kHeterogeneous},
        RunnerCase{Algorithm::kPct, PartitionPolicy::kHomogeneous},
        RunnerCase{Algorithm::kMorph, PartitionPolicy::kHeterogeneous},
        RunnerCase{Algorithm::kMorph, PartitionPolicy::kHomogeneous},
        RunnerCase{Algorithm::kPpi, PartitionPolicy::kHeterogeneous},
        RunnerCase{Algorithm::kPpi, PartitionPolicy::kHomogeneous}),
    [](const auto& param_info) {
      std::string name =
          display_name(param_info.param.algorithm, param_info.param.policy);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(RunnerTest, DataStagingFlagRaisesCommunication) {
  const auto cube = testing::striped_cube(48, 24, 24, 3);
  RunnerConfig cfg;
  cfg.algorithm = Algorithm::kAtdca;
  cfg.targets = 3;
  const auto base = run_algorithm(simnet::fully_heterogeneous(), cube, cfg);
  cfg.charge_data_staging = true;
  const auto staged = run_algorithm(simnet::fully_heterogeneous(), cube, cfg);
  EXPECT_GT(staged.report.total_bytes_moved(),
            3 * base.report.total_bytes_moved());
  EXPECT_GT(staged.report.total_time, base.report.total_time);
}

}  // namespace
}  // namespace hprs::core
