// The fault-tolerance contract of core/ft.hpp, across all five algorithms:
//
//  * outputs first -- a run under fail-stop worker crashes returns the
//    fault-free outputs bit for bit (recovery must never change the
//    science), for hand-picked plans and for seeded random ones (1-3
//    non-root crashes, one at t = 0, one inside a recovery round);
//  * determinism second -- a fixed fault plan yields bit-identical
//    RunReports (fault log and recovery decomposition included) across
//    repeated runs and across both host execution modes;
//  * guardrails third -- a mortal root and halo-exchange MORPH under a
//    crash plan are rejected up front with a named reason.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/runner.hpp"
#include "simnet/platform.hpp"
#include "test_scenes.hpp"
#include "vmpi/engine.hpp"

namespace hprs::core {
namespace {

hsi::HsiCube test_cube() {
  auto cube = hprs::testing::striped_cube(48, 16, 24, 4);
  hprs::testing::plant_targets(cube, 4);
  return cube;
}

RunnerConfig base_config(Algorithm alg) {
  RunnerConfig cfg;
  cfg.algorithm = alg;
  cfg.policy = PartitionPolicy::kHeterogeneous;
  cfg.targets = 4;
  cfg.classes = 4;
  cfg.morph_iterations = 2;
  cfg.kernel_radius = 1;
  // Crash plans key off the run time, so the workers' phases must span
  // most of it: PPI's projections have to outweigh the root's skewer draw
  // and purity ranking.
  cfg.replication = alg == Algorithm::kPpi ? 64 : 1;
  return cfg;
}

/// Two worker crashes bracketing the middle of the fault-free run.
vmpi::Options crash_options(double fault_free_s) {
  vmpi::Options options;
  options.fault_plan.crashes.push_back({3, 0.25 * fault_free_s});
  options.fault_plan.crashes.push_back({11, 0.50 * fault_free_s});
  return options;
}

void expect_same_outputs(const RunnerOutput& a, const RunnerOutput& b,
                         const char* label) {
  ASSERT_EQ(a.targets.size(), b.targets.size()) << label;
  for (std::size_t i = 0; i < a.targets.size(); ++i) {
    EXPECT_EQ(a.targets[i].row, b.targets[i].row) << label << " target " << i;
    EXPECT_EQ(a.targets[i].col, b.targets[i].col) << label << " target " << i;
  }
  EXPECT_EQ(a.labels, b.labels) << label;
  EXPECT_EQ(a.label_count, b.label_count) << label;
}

void expect_same_reports(const vmpi::RunReport& a, const vmpi::RunReport& b,
                         const char* label) {
  EXPECT_EQ(a.total_time, b.total_time) << label;
  ASSERT_EQ(a.ranks.size(), b.ranks.size()) << label;
  for (std::size_t r = 0; r < a.ranks.size(); ++r) {
    EXPECT_EQ(a.ranks[r].clock, b.ranks[r].clock) << label << " rank " << r;
    EXPECT_EQ(a.ranks[r].flops, b.ranks[r].flops) << label << " rank " << r;
    EXPECT_EQ(a.ranks[r].bytes_sent, b.ranks[r].bytes_sent)
        << label << " rank " << r;
    EXPECT_EQ(a.ranks[r].bytes_received, b.ranks[r].bytes_received)
        << label << " rank " << r;
    if (::testing::Test::HasFailure()) break;
  }
  ASSERT_EQ(a.fault_events.size(), b.fault_events.size()) << label;
  for (std::size_t i = 0; i < a.fault_events.size(); ++i) {
    EXPECT_EQ(a.fault_events[i].time_s, b.fault_events[i].time_s)
        << label << " event " << i;
    EXPECT_EQ(a.fault_events[i].rank, b.fault_events[i].rank)
        << label << " event " << i;
    if (::testing::Test::HasFailure()) break;
  }
  EXPECT_EQ(a.recovery.detection_s, b.recovery.detection_s) << label;
  EXPECT_EQ(a.recovery.redistribution_s, b.recovery.redistribution_s) << label;
  EXPECT_EQ(a.recovery.recomputed_s, b.recovery.recomputed_s) << label;
  EXPECT_EQ(a.recovery.recomputed_flops, b.recovery.recomputed_flops) << label;
}

class FaultRecoverySweep : public ::testing::TestWithParam<Algorithm> {};

TEST_P(FaultRecoverySweep, FaultTolerantOutputsMatchFaultFree) {
  const auto cube = test_cube();
  const auto platform = simnet::fully_heterogeneous();
  const auto cfg = base_config(GetParam());

  // Empty plan: no recovery overhead, no fault log.
  const auto reference = run_algorithm(platform, cube, cfg);
  EXPECT_EQ(reference.report.recovery.total_overhead_s(), 0.0);
  EXPECT_TRUE(reference.report.fault_events.empty());

  // Two mid-run worker crashes: outputs still match, overhead is recorded.
  const auto options = crash_options(reference.report.total_time);
  const auto ft_crash = run_algorithm(platform, cube, cfg, options);
  expect_same_outputs(reference, ft_crash, "ft-crashes");
  EXPECT_EQ(ft_crash.report.recovery.crashes, 2);
  EXPECT_GE(ft_crash.report.recovery.detections, 2);
  EXPECT_GT(ft_crash.report.recovery.detection_s, 0.0);
  EXPECT_GT(ft_crash.report.recovery.recomputed_flops, 0u);
  EXPECT_FALSE(ft_crash.report.fault_events.empty());
}

TEST_P(FaultRecoverySweep, FaultedReportsBitIdenticalAcrossRunsAndModes) {
  const auto cube = test_cube();
  const auto platform = simnet::fully_heterogeneous();
  const auto cfg = base_config(GetParam());
  const auto reference = run_algorithm(platform, cube, cfg);

  const auto options = crash_options(reference.report.total_time);
  const auto first = run_algorithm(platform, cube, cfg, options);
  const auto repeat = run_algorithm(platform, cube, cfg, options);
  expect_same_reports(first.report, repeat.report, "repeat");

  auto tpr = options;
  tpr.exec_mode = vmpi::ExecMode::kThreadPerRank;
  const auto threads = run_algorithm(platform, cube, cfg, tpr);
  expect_same_outputs(first, threads, "modes-outputs");
  expect_same_reports(first.report, threads.report, "executor-vs-threads");
}

/// A seeded random plan of 1-3 distinct non-root crashes over the
/// fault-free run's span.  Seed 1 crashes a rank at t = 0 (before the
/// chunk deal reaches it); seed 2 crashes one in the first 40% of the run
/// and a second one a hair after that crash is detected, so it lands
/// inside the recovery round.
vmpi::Options random_crash_options(std::uint64_t seed, Algorithm alg,
                                   const simnet::Platform& platform,
                                   const hsi::HsiCube& cube,
                                   const RunnerConfig& cfg,
                                   double fault_free_s) {
  SplitMix64 rng(seed * 0x9e3779b97f4a7c15ULL + static_cast<int>(alg));
  const auto uniform = [&rng] {
    return static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
  };
  const int p = static_cast<int>(platform.size());
  std::set<int> ranks;
  const std::size_t k = 1 + rng.next() % 3;
  while (ranks.size() < std::max<std::size_t>(k, seed == 2 ? 2 : 1)) {
    ranks.insert(1 + static_cast<int>(rng.next() % (p - 1)));
  }
  vmpi::Options options;
  for (const int rank : ranks) {
    options.fault_plan.crashes.push_back({rank, uniform() * fault_free_s});
  }
  if (seed == 1) options.fault_plan.crashes.front().time_s = 0.0;
  if (seed == 2) {
    // Find the first detection of the first crash alone, then kill the
    // second victim just after it: its next operation is recovery work.
    options.fault_plan.crashes.front().time_s *= 0.4;
    vmpi::Options first = options;
    first.fault_plan.crashes.resize(1);
    const auto probe = run_algorithm(platform, cube, cfg, first);
    double detected = fault_free_s;
    for (const auto& e : probe.report.fault_events) {
      if (e.kind == vmpi::FaultEventKind::kDetection) {
        detected = std::min(detected, e.time_s);
      }
    }
    options.fault_plan.crashes.resize(2);
    options.fault_plan.crashes[1].time_s = detected + 1e-9;
  }
  return options;
}

TEST_P(FaultRecoverySweep, RandomCrashPlansReturnTheFaultFreeOutputs) {
  const auto cube = test_cube();
  const auto platform = simnet::fully_heterogeneous();
  const auto cfg = base_config(GetParam());
  const auto reference = run_algorithm(platform, cube, cfg);

  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto options = random_crash_options(seed, GetParam(), platform, cube, cfg,
                                        reference.report.total_time);
    const auto run = run_algorithm(platform, cube, cfg, options);
    expect_same_outputs(reference, run, "random plan");
    EXPECT_LE(run.report.recovery.crashes,
              static_cast<int>(options.fault_plan.crashes.size()));
    if (seed == 1) {
      EXPECT_GE(run.report.recovery.crashes, 1);
    }
    if (seed == 2) {
      // Both crashes fired, detected at two different instants: the
      // second one inside the first one's recovery.
      EXPECT_EQ(run.report.recovery.crashes, 2);
      std::set<double> detections;
      for (const auto& e : run.report.fault_events) {
        if (e.kind == vmpi::FaultEventKind::kDetection) {
          detections.insert(e.time_s);
        }
      }
      EXPECT_GE(detections.size(), 2u);
    }
    options.exec_mode = vmpi::ExecMode::kThreadPerRank;
    const auto threads = run_algorithm(platform, cube, cfg, options);
    expect_same_outputs(reference, threads, "random plan, threads");
    expect_same_reports(run.report, threads.report, "executor-vs-threads");
    if (::testing::Test::HasFailure()) break;
  }
}

INSTANTIATE_TEST_SUITE_P(Algorithms, FaultRecoverySweep,
                         ::testing::Values(Algorithm::kAtdca,
                                           Algorithm::kUfcls, Algorithm::kPct,
                                           Algorithm::kMorph, Algorithm::kPpi),
                         [](const auto& param_info) {
                           return to_string(param_info.param);
                         });

/// Runs `cfg` under `options`, expecting an hprs::Error mentioning `what`.
void expect_rejected(const RunnerConfig& cfg, const vmpi::Options& options,
                     const std::string& what) {
  try {
    (void)run_algorithm(simnet::fully_heterogeneous(), test_cube(), cfg,
                        options);
    FAIL() << "expected hprs::Error mentioning '" << what << "'";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  }
}

TEST(FaultRecoveryGuards, MortalRootIsRejected) {
  vmpi::Options options;
  options.fault_plan.crashes.push_back({0, 0.01});  // the root
  expect_rejected(base_config(Algorithm::kAtdca), options, "root");
}

TEST(FaultRecoveryGuards, MorphFaultToleranceRequiresOverlapBorders) {
  auto cfg = base_config(Algorithm::kMorph);
  cfg.morph_overlap_borders = false;
  // Without crashes the halo-exchange mode runs as before.
  EXPECT_NO_THROW(
      (void)run_algorithm(simnet::fully_heterogeneous(), test_cube(), cfg));
  vmpi::Options options;
  options.fault_plan.crashes.push_back({3, 0.01});
  expect_rejected(cfg, options, "halo-exchange");
}

}  // namespace
}  // namespace hprs::core
