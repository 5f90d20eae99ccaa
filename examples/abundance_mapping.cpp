// Abundance mapping workflow -- the full chain a mapping application runs:
//
//   1. extract endmember signatures with Hetero-ATDCA (cross-checked
//      against the parallel Pixel Purity Index),
//   2. unmix every pixel against them with the parallel FCLS mapper,
//   3. export the abundance planes (PGM), the dominant-endmember map (PPM),
//      and the per-rank execution timeline of the unmixing run.
//
//   ./abundance_mapping [--rows N] [--cols N] [--seed S] [--targets T]
//                       [--outdir DIR]
#include <cstdio>
#include <filesystem>

#include "common/cli.hpp"
#include "core/runner.hpp"
#include "core/unmix_map.hpp"
#include "hsi/render.hpp"
#include "hsi/scene.hpp"
#include "simnet/platform.hpp"
#include "vmpi/trace.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace hprs;
  const CliArgs args(argc, argv, {"rows", "cols", "seed", "targets",
                                  "outdir"});

  hsi::SceneConfig scene_cfg;
  scene_cfg.rows = static_cast<std::size_t>(args.get_int("rows", 96));
  scene_cfg.cols = static_cast<std::size_t>(args.get_int("cols", 96));
  scene_cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 20010916));
  const hsi::Scene scene = hsi::generate_wtc_scene(scene_cfg);
  const simnet::Platform platform = simnet::fully_heterogeneous();

  const std::filesystem::path outdir = args.get("outdir", "abundance_out");
  std::filesystem::create_directories(outdir);

  // --- 1. Endmember extraction ---------------------------------------------
  core::RunnerConfig det;
  det.algorithm = core::Algorithm::kAtdca;
  det.targets = static_cast<std::size_t>(args.get_int("targets", 12));
  const auto atdca = core::run_algorithm(platform, scene.cube, det);
  std::printf("ATDCA extracted %zu endmembers in %.1f simulated s\n",
              atdca.targets.size(), atdca.report.total_time);

  core::RunnerConfig ppi_cfg;
  ppi_cfg.algorithm = core::Algorithm::kPpi;
  ppi_cfg.targets = det.targets;
  ppi_cfg.skewers = 512;
  const auto ppi = core::run_algorithm(platform, scene.cube, ppi_cfg);
  std::size_t shared = 0;
  for (const auto& t : atdca.targets) {
    for (const auto& p : ppi.targets) {
      if (t == p) ++shared;
    }
  }
  std::printf("PPI (512 skewers) agrees on %zu/%zu candidates\n", shared,
              atdca.targets.size());

  // --- 2. Parallel FCLS unmixing -------------------------------------------
  const auto endmembers = core::endmembers_at(scene.cube, atdca.targets);
  core::UnmixMapConfig unmix_cfg;
  vmpi::Options traced;
  traced.enable_trace = true;
  const auto maps =
      core::run_unmix_map(platform, scene.cube, endmembers, unmix_cfg, traced);
  std::printf("unmixed %zux%zu pixels against %zu endmembers in %.1f "
              "simulated s (COM %.2f  PAR %.2f)\n",
              maps.rows, maps.cols, maps.endmembers, maps.report.total_time,
              maps.report.com(), maps.report.par());

  // --- 3. Products ----------------------------------------------------------
  for (std::size_t e = 0; e < maps.endmembers; ++e) {
    hsi::write_pgm((outdir / ("abundance_" + std::to_string(e) + ".pgm"))
                       .string(),
                   maps.plane(e), maps.rows, maps.cols);
  }
  hsi::write_pgm((outdir / "rmse.pgm").string(), maps.rmse, maps.rows,
                 maps.cols);
  std::vector<std::uint16_t> dominant(maps.rows * maps.cols);
  for (std::size_t r = 0; r < maps.rows; ++r) {
    for (std::size_t c = 0; c < maps.cols; ++c) {
      dominant[r * maps.cols + c] =
          static_cast<std::uint16_t>(maps.dominant(r, c));
    }
  }
  hsi::write_label_ppm((outdir / "dominant.ppm").string(), dominant,
                       maps.rows, maps.cols);
  std::printf("wrote %zu abundance planes, rmse.pgm and dominant.ppm to %s\n",
              maps.endmembers, outdir.string().c_str());

  std::printf("\nper-rank timeline of the unmixing run:\n%s",
              vmpi::render_gantt(maps.report, 64).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hprs::run_main(argc, argv, run, 1);
}
