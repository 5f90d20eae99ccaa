// Table 7: load-balancing rates D = R_max / R_min over the per-processor
// busy times, with (D_all) and without (D_minus) the root processor.
//
// Paper shapes to hold: the heterogeneous algorithms sit near-perfect
// balance (D_all close to 1, MORPH closest); the homogeneous versions are
// clearly imbalanced whenever processors are heterogeneous; excluding the
// root improves balance for the master-heavy algorithms.
#include "bench_common.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace hprs;
  const auto setup = bench::make_setup(argc, argv, bench::Summary::kWritten);
  const auto records = bench::network_sweep(setup);

  TextTable table({"Algorithm", "Network", "D_all", "D_minus"});
  for (const auto& rec : records) {
    table.add_row({core::display_name(rec.algorithm, rec.policy), rec.network,
                   TextTable::num(rec.report.imbalance_all(), 2),
                   TextTable::num(rec.report.imbalance_minus_root(), 2)});
  }
  bench::emit(table, setup.csv,
              "Table 7. Load balancing rates for the heterogeneous "
              "algorithms and their homogeneous versions.");

  obs::RunSummary summary;
  for (const auto& rec : records) {
    obs::add_run_report(summary,
                          "table7." + bench::summary_prefix(rec.algorithm,
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
