// Table 5: execution times (simulated seconds) of the heterogeneous
// algorithms and their homogeneous versions on the four networks.
//
// Paper shapes to hold: Hetero-X is nearly flat across all four networks;
// Homo-X collapses on the (fully or partially) heterogeneous-processor
// networks; on the fully homogeneous network the two versions coincide.
#include "bench_common.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace hprs;
  const auto setup = bench::make_setup(argc, argv, bench::Summary::kWritten);
  const auto records = bench::network_sweep(setup);

  TextTable table({"Algorithm", "Fully heterogeneous", "Fully homogeneous",
                   "Partially heterogeneous", "Partially homogeneous"});
  for (std::size_t i = 0; i < records.size(); i += 4) {
    table.add_row({core::display_name(records[i].algorithm, records[i].policy),
                   TextTable::num(records[i].report.total_time, 0),
                   TextTable::num(records[i + 1].report.total_time, 0),
                   TextTable::num(records[i + 2].report.total_time, 0),
                   TextTable::num(records[i + 3].report.total_time, 0)});
  }
  bench::emit(table, setup.csv,
              "Table 5. Execution times (seconds) of heterogeneous "
              "algorithms and their homogeneous versions.");

  obs::RunSummary summary;
  for (const auto& rec : records) {
    obs::add_run_report(summary,
                          "table5." + bench::summary_prefix(rec.algorithm,
                                                            rec.policy,
                                                            rec.network),
                          rec.report);
  }
  return bench::write_summary(setup.summary_path, summary) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return hprs::run_main(argc, argv, run, 1);
}
