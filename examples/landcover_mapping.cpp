// Land-cover mapping workflow: classify the synthetic WTC scene with the
// purely spectral (Hetero-PCT) and spatial/spectral (Hetero-MORPH)
// classifiers, score them against the USGS-style dust/debris ground truth,
// and render the MORPH map as ASCII art.
//
//   ./landcover_mapping [--rows N] [--cols N] [--seed S] [--classes C]
//                       [--iterations I] [--radius R]
#include <cstdio>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/runner.hpp"
#include "hsi/accuracy.hpp"
#include "hsi/scene.hpp"
#include "simnet/platform.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace hprs;
  const CliArgs args(argc, argv,
                     {"rows", "cols", "seed", "classes", "iterations",
                      "radius"});

  hsi::SceneConfig scene_cfg;
  scene_cfg.rows = static_cast<std::size_t>(args.get_int("rows", 96));
  scene_cfg.cols = static_cast<std::size_t>(args.get_int("cols", 96));
  scene_cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 20010916));
  const hsi::Scene scene = hsi::generate_wtc_scene(scene_cfg);

  core::RunnerConfig cfg;
  cfg.classes = static_cast<std::size_t>(args.get_int("classes", 14));
  cfg.morph_iterations =
      static_cast<std::size_t>(args.get_int("iterations", 5));
  cfg.kernel_radius = static_cast<std::size_t>(args.get_int("radius", 2));

  const simnet::Platform platform = simnet::fully_heterogeneous();
  const auto debris = hsi::debris_materials();

  TextTable table({"Dust/debris class", "Hetero-PCT %", "Hetero-MORPH %"});
  std::vector<hsi::ClassificationScore> scores;
  core::RunnerOutput morph_out;
  for (const auto alg : {core::Algorithm::kPct, core::Algorithm::kMorph}) {
    cfg.algorithm = alg;
    auto out = core::run_algorithm(platform, scene.cube, cfg);
    scores.push_back(hsi::score_classification(out.labels, out.label_count,
                                               scene.truth, debris));
    std::printf("%s: %zu classes found, %.1f simulated s\n",
                core::display_name(alg, cfg.policy).c_str(), out.label_count,
                out.report.total_time);
    if (alg == core::Algorithm::kMorph) morph_out = std::move(out);
  }
  for (std::size_t k = 0; k < debris.size(); ++k) {
    table.add_row({hsi::to_string(debris[k]),
                   TextTable::num(scores[0].per_class_pct[k], 1),
                   TextTable::num(scores[1].per_class_pct[k], 1)});
  }
  table.add_row({"Overall", TextTable::num(scores[0].overall_pct, 1),
                 TextTable::num(scores[1].overall_pct, 1)});
  std::printf("\n%s", table.to_string().c_str());

  // ASCII rendering of the MORPH classification (one character per pixel,
  // downsampled to at most 64 columns).
  const std::size_t step =
      std::max<std::size_t>(1, scene.truth.cols / 64);
  std::printf("\nHetero-MORPH land-cover map (downsampled %zux):\n",
              step);
  static const char* kGlyphs = ".~#%*+o=@$abcdefgh";
  for (std::size_t r = 0; r < scene.truth.rows; r += step) {
    for (std::size_t c = 0; c < scene.truth.cols; c += step) {
      const auto label = morph_out.labels[r * scene.truth.cols + c];
      std::putchar(kGlyphs[label % 18]);
    }
    std::putchar('\n');
  }
  std::printf("(each glyph is one of the %zu unsupervised classes)\n",
              morph_out.label_count);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hprs::run_main(argc, argv, run, 1);
}
