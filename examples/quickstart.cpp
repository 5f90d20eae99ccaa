// Quickstart: generate a synthetic WTC scene, simulate the paper's fully
// heterogeneous network of workstations, and run the heterogeneous ATDCA
// target detector on it.
//
//   ./quickstart [--rows N] [--cols N] [--targets T] [--seed S]
//
// Prints the detected targets, how well they match the ground-truth thermal
// hot spots, and the simulated timing breakdown.
#include <cstdio>
#include <iostream>

#include "common/cli.hpp"
#include "core/runner.hpp"
#include "hsi/metrics.hpp"
#include "hsi/scene.hpp"
#include "simnet/platform.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace hprs;
  const CliArgs args(argc, argv, {"rows", "cols", "targets", "seed"});

  // 1. Synthesize the hyperspectral scene (stands in for the AVIRIS World
  //    Trade Center cube; see DESIGN.md).
  hsi::SceneConfig scene_cfg;
  scene_cfg.rows = static_cast<std::size_t>(args.get_int("rows", 96));
  scene_cfg.cols = static_cast<std::size_t>(args.get_int("cols", 96));
  scene_cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 20010916));
  const hsi::Scene scene = hsi::generate_wtc_scene(scene_cfg);
  std::printf("scene: %zux%zu pixels, %zu bands, %zu thermal hot spots\n",
              scene.cube.rows(), scene.cube.cols(), scene.cube.bands(),
              scene.truth.hot_spots.size());

  // 2. Describe the parallel platform: the paper's 16-workstation fully
  //    heterogeneous network (Tables 1-2).
  const simnet::Platform platform = simnet::fully_heterogeneous();
  std::printf("platform: %s, %zu processors, %zu segments\n",
              platform.name().c_str(), platform.size(),
              platform.segment_count());

  // 3. Run Hetero-ATDCA.
  core::RunnerConfig cfg;
  cfg.algorithm = core::Algorithm::kAtdca;
  cfg.policy = core::PartitionPolicy::kHeterogeneous;
  cfg.targets = static_cast<std::size_t>(args.get_int("targets", 18));
  const core::RunnerOutput out =
      core::run_algorithm(platform, scene.cube, cfg);

  std::printf("\n%s extracted %zu targets in %.2f simulated seconds\n",
              core::display_name(cfg.algorithm, cfg.policy).c_str(),
              out.targets.size(), out.report.total_time);
  std::printf("  COM %.2fs  SEQ %.2fs  PAR %.2fs  imbalance D_all %.3f\n",
              out.report.com(), out.report.seq(), out.report.par(),
              out.report.imbalance_all());

  // 4. Compare against the ground truth: for every hot spot, the spectral
  //    angle to the most similar detected target.
  std::printf("\nhot spot -> best-matching target (SAD, radians):\n");
  for (const auto& hs : scene.truth.hot_spots) {
    const auto truth_px = scene.cube.pixel(hs.row, hs.col);
    double best = 3.15;
    for (const auto& t : out.targets) {
      best = std::min(best, hsi::sad<float, float>(
                                truth_px, scene.cube.pixel(t.row, t.col)));
    }
    std::printf("  '%c' (%4.0f F at %3zu,%3zu): %.4f\n", hs.label, hs.temp_f,
                hs.row, hs.col, best);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hprs::run_main(argc, argv, run, 1);
}
