// Full target-detection workflow on the synthetic World Trade Center scene:
//
//   1. generate the scene and persist it as an ENVI-style cube (drop in a
//      real AVIRIS cube at the same path to run on real data),
//   2. estimate the intrinsic dimensionality (the paper derives t = 18 from
//      it) with the HFC virtual-dimensionality test,
//   3. run Hetero-ATDCA and Hetero-UFCLS on the simulated fully
//      heterogeneous network,
//   4. score both detectors against the thermal-hot-spot ground truth and
//      report the timing decomposition.
//
//   ./target_detection_wtc [--rows N] [--cols N] [--seed S] [--targets T]
//                          [--out PATH]
#include <algorithm>
#include <cstdio>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/runner.hpp"
#include "hsi/io.hpp"
#include "hsi/metrics.hpp"
#include "hsi/scene.hpp"
#include "hsi/vd.hpp"
#include "simnet/platform.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace hprs;
  const CliArgs args(argc, argv, {"rows", "cols", "seed", "targets", "out"});

  // --- 1. Scene -----------------------------------------------------------
  hsi::SceneConfig scene_cfg;
  scene_cfg.rows = static_cast<std::size_t>(args.get_int("rows", 96));
  scene_cfg.cols = static_cast<std::size_t>(args.get_int("cols", 96));
  scene_cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 20010916));
  const hsi::Scene scene = hsi::generate_wtc_scene(scene_cfg);

  const std::string out = args.get("out", "wtc_scene");
  hsi::write_envi(scene.cube, out);
  std::printf("scene written to %s.hdr / %s.raw (%zux%zu pixels, %zu bands)\n",
              out.c_str(), out.c_str(), scene.cube.rows(), scene.cube.cols(),
              scene.cube.bands());

  // --- 2. Intrinsic dimensionality ----------------------------------------
  const auto vd = hsi::estimate_vd(scene.cube, 1e-4);
  const auto requested = args.get_int("targets", 0);
  const std::size_t targets =
      requested > 0 ? static_cast<std::size_t>(requested)
                    : std::max<std::size_t>(8, vd.dimensionality);
  std::printf("HFC virtual dimensionality: %zu sources -> extracting %zu "
              "targets (the paper derives t = 18 the same way)\n",
              vd.dimensionality, targets);

  // --- 3. Detect on the simulated heterogeneous network -------------------
  const simnet::Platform platform = simnet::fully_heterogeneous();
  TextTable table({"Hot spot", "Temp (F)", "ATDCA SAD", "UFCLS SAD"});
  std::vector<core::RunnerOutput> runs;
  for (const auto alg : {core::Algorithm::kAtdca, core::Algorithm::kUfcls}) {
    core::RunnerConfig cfg;
    cfg.algorithm = alg;
    cfg.targets = targets;
    runs.push_back(core::run_algorithm(platform, scene.cube, cfg));
    const auto& rep = runs.back().report;
    std::printf("%s: %.1f simulated s (COM %.1f  SEQ %.1f  PAR %.1f)\n",
                core::display_name(alg, cfg.policy).c_str(), rep.total_time,
                rep.com(), rep.seq(), rep.par());
  }

  // --- 4. Score ------------------------------------------------------------
  for (const auto& hs : scene.truth.hot_spots) {
    const auto truth_px = scene.cube.pixel(hs.row, hs.col);
    std::vector<std::string> row = {std::string("'") + hs.label + "'",
                                    TextTable::num(hs.temp_f, 0)};
    for (const auto& run : runs) {
      double best = 10.0;
      for (const auto& t : run.targets) {
        best = std::min(best, hsi::sad<float, float>(
                                  truth_px, scene.cube.pixel(t.row, t.col)));
      }
      row.push_back(TextTable::num(best, 4));
    }
    table.add_row(row);
  }
  std::printf("\n%s", table.to_string().c_str());
  std::printf("(SAD 0 = exact match; the paper's UFCLS likewise misses the "
              "cool 700 F spot 'F')\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hprs::run_main(argc, argv, run, 1);
}
