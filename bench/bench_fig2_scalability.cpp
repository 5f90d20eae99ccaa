// Figure 2: speedup curves of the heterogeneous algorithms on Thunderhead
// (multi-processor time over single-processor time), printed both as a
// table of series and as an ASCII plot.
//
// Paper shapes to hold: Hetero-MORPH scales best and Hetero-PCT worst
// (sequential eigendecomposition); ATDCA scales slightly better than UFCLS.
#include <algorithm>
#include <cstdio>
#include <map>

#include "bench_common.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace hprs;
  const auto setup = bench::make_setup(argc, argv, bench::Summary::kNone,
                                       /*default_rows=*/1067,
                                       /*default_cols=*/32,
                                       /*default_replication=*/32);

  // Measure the speedup series.
  std::map<core::Algorithm, std::vector<double>> speedups;
  for (const auto alg : bench::all_algorithms()) {
    auto cfg = setup.config;
    cfg.algorithm = alg;
    double t1 = 0.0;
    for (const std::size_t cpus : bench::thunderhead_cpus()) {
      const auto out = core::run_algorithm(simnet::thunderhead(cpus),
                                           setup.scene.cube, cfg);
      if (cpus == 1) t1 = out.report.total_time;
      speedups[alg].push_back(t1 / out.report.total_time);
    }
  }

  std::vector<std::string> header = {"CPUs"};
  for (const auto alg : bench::all_algorithms()) {
    header.push_back(std::string("Hetero-") + core::to_string(alg));
  }
  TextTable table(std::move(header));
  const auto& cpus = bench::thunderhead_cpus();
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    std::vector<std::string> row = {
        TextTable::num(static_cast<long long>(cpus[i]))};
    for (const auto alg : bench::all_algorithms()) {
      row.push_back(TextTable::num(speedups[alg][i], 1));
    }
    table.add_row(std::move(row));
  }
  bench::emit(table, setup.csv,
              "Figure 2. Speedups of the heterogeneous algorithms on "
              "Thunderhead (series data).");

  if (!setup.csv) {
    // ASCII rendering of the figure: speedup vs CPUs, one glyph per
    // algorithm, with the ideal diagonal for reference.
    constexpr int kRows = 24;
    constexpr int kCols = 72;
    const double max_speedup = 256.0;
    std::vector<std::string> canvas(kRows, std::string(kCols, ' '));
    const auto to_col = [&](double cpu) {
      return std::min<int>(
          kCols - 1, static_cast<int>(cpu / 256.0 * (kCols - 1)));
    };
    const auto to_row = [&](double s) {
      return std::max(
          0, kRows - 1 -
                 static_cast<int>(s / max_speedup * (kRows - 1)));
    };
    for (const std::size_t c : bench::thunderhead_cpus()) {
      canvas[static_cast<std::size_t>(to_row(static_cast<double>(c)))]
            [static_cast<std::size_t>(to_col(static_cast<double>(c)))] = '.';
    }
    const char glyph[4] = {'A', 'U', 'P', 'M'};
    for (std::size_t a = 0; a < bench::all_algorithms().size(); ++a) {
      const auto alg = bench::all_algorithms()[a];
      for (std::size_t i = 0; i < cpus.size(); ++i) {
        canvas[static_cast<std::size_t>(to_row(speedups[alg][i]))]
              [static_cast<std::size_t>(
                  to_col(static_cast<double>(cpus[i])))] = glyph[a];
      }
    }
    std::printf("\nspeedup (max %.0f)   A=ATDCA U=UFCLS P=PCT M=MORPH "
                ".=ideal\n",
                max_speedup);
    for (const auto& line : canvas) {
      std::printf("|%s\n", line.c_str());
    }
    std::printf("+%s> CPUs (0..256)\n", std::string(kCols, '-').c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hprs::run_main(argc, argv, run, 1);
}
