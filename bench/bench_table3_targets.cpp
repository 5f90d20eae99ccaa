// Table 3: spectral similarity (SAD) between the target pixels detected by
// Hetero-ATDCA / Hetero-UFCLS and the known thermal hot spots, with the
// single-processor execution times in parentheses.
//
// Paper shapes to hold: ATDCA matches every hot spot near-exactly; UFCLS
// misses the weak ones -- most notably 'F', the 700 F spot the paper calls
// out.
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "hsi/metrics.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace hprs;
  auto setup = bench::make_setup(argc, argv, bench::Summary::kNone);
  const auto& scene = setup.scene;

  struct Column {
    core::Algorithm algorithm;
    core::RunnerOutput detection;   // on the fully heterogeneous network
    double sequential_seconds = 0;  // single Thunderhead processor
  };
  std::vector<Column> columns;
  for (const auto alg : {core::Algorithm::kAtdca, core::Algorithm::kUfcls}) {
    Column col;
    col.algorithm = alg;
    auto cfg = setup.config;
    cfg.algorithm = alg;
    col.detection =
        core::run_algorithm(simnet::fully_heterogeneous(), scene.cube, cfg);
    col.sequential_seconds =
        core::run_algorithm(simnet::thunderhead(1), scene.cube, cfg)
            .report.total_time;
    columns.push_back(std::move(col));
  }

  TextTable table({"Hot spot",
                   "Hetero-ATDCA (" +
                       TextTable::num(columns[0].sequential_seconds, 0) + ")",
                   "Hetero-UFCLS (" +
                       TextTable::num(columns[1].sequential_seconds, 0) + ")"});
  for (const auto& hs : scene.truth.hot_spots) {
    const auto truth_px = scene.cube.pixel(hs.row, hs.col);
    std::vector<std::string> row = {std::string("'") + hs.label + "'"};
    for (const auto& col : columns) {
      double best = 10.0;
      for (const auto& t : col.detection.targets) {
        best = std::min(best, hsi::sad<float, float>(
                                  truth_px, scene.cube.pixel(t.row, t.col)));
      }
      row.push_back(TextTable::num(best, 3));
    }
    table.add_row(row);
  }
  bench::emit(table, setup.csv,
              "Table 3. SAD between detected targets and known ground "
              "targets (single-processor seconds in parentheses).");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hprs::run_main(argc, argv, run, 1);
}
