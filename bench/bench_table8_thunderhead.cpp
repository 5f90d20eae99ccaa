// Table 8: execution times of the heterogeneous algorithms on the
// Thunderhead Beowulf surrogate for 1..256 processors.
//
// Paper shapes to hold: times fall monotonically with processor count for
// every algorithm; MORPH and ATDCA keep scaling to 256 nodes while PCT
// saturates earliest (its sequential eigendecomposition).
//
// The default scene is taller than the other benches' (the 256-way
// partition needs at least 256 image rows).
//
// The --summary also records the *host* wall time of each (algorithm,
// CPUs) cell -- the cost of simulating the run, as opposed to the virtual
// time the run reports; large p exercises the engine's scheduling/wakeup
// paths far more than its numerics.
#include <chrono>

#include "bench_common.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace hprs;
  const auto setup = bench::make_setup(argc, argv, bench::Summary::kWritten,
                                       /*default_rows=*/1067,
                                       /*default_cols=*/32,
                                       /*default_replication=*/32);

  std::vector<std::string> header = {"CPUs"};
  for (const auto alg : bench::all_algorithms()) {
    header.push_back(core::to_string(alg));
  }
  TextTable table(std::move(header));

  obs::RunSummary summary;
  for (const std::size_t cpus : bench::thunderhead_cpus()) {
    std::vector<std::string> row = {
        TextTable::num(static_cast<long long>(cpus))};
    for (const auto alg : bench::all_algorithms()) {
      auto cfg = setup.config;
      cfg.algorithm = alg;
      const auto host_start = std::chrono::steady_clock::now();
      const auto out = core::run_algorithm(simnet::thunderhead(cpus),
                                           setup.scene.cube, cfg);
      const std::chrono::duration<double> host_elapsed =
          std::chrono::steady_clock::now() - host_start;
      row.push_back(TextTable::num(out.report.total_time, 0));
      const std::string prefix = std::string("table8.") +
                                 core::to_string(alg) + ".p" +
                                 std::to_string(cpus);
      summary.set_number(prefix + ".virtual_s", out.report.total_time);
      // "host" in the key routes it to report_diff's threshold comparison.
      summary.set_number(prefix + ".host_s", host_elapsed.count());
    }
    table.add_row(std::move(row));
  }
  bench::emit(table, setup.csv,
              "Table 8. Execution times (seconds) of the heterogeneous "
              "algorithms on Thunderhead.");
  return bench::write_summary(setup.summary_path, summary) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return hprs::run_main(argc, argv, run, 1);
}
