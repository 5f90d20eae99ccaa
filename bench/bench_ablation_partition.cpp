// Ablation: how much does heterogeneity-aware partitioning (the WEA) buy as
// processor heterogeneity grows?  Sweeps synthetic 16-node platforms whose
// fastest/slowest speed ratio ranges from 1x to 32x and compares the
// heterogeneous and homogeneous versions of ATDCA.
//
// Expected shape: at spread 1 the two coincide; the homogeneous version's
// time grows with the spread (the slowest node gates it) while the
// WEA-balanced version stays near the aggregate-speed optimum.
#include "bench_common.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace hprs;
  const auto setup = bench::make_setup(argc, argv, bench::Summary::kNone);

  TextTable table({"Speed spread", "Hetero time (s)", "Homo time (s)",
                   "Homo/Hetero", "Hetero D_all", "Homo D_all"});
  for (const double spread : {1.0, 2.0, 4.0, 8.0, 16.0, 32.0}) {
    const auto platform =
        simnet::synthetic_heterogeneous(16, spread, 0.0131, 26.64);
    auto cfg = setup.config;
    cfg.algorithm = core::Algorithm::kAtdca;
    cfg.policy = core::PartitionPolicy::kHeterogeneous;
    const auto het = core::run_algorithm(platform, setup.scene.cube, cfg);
    cfg.policy = core::PartitionPolicy::kHomogeneous;
    const auto homo = core::run_algorithm(platform, setup.scene.cube, cfg);
    table.add_row({TextTable::num(spread, 0),
                   TextTable::num(het.report.total_time, 1),
                   TextTable::num(homo.report.total_time, 1),
                   TextTable::num(homo.report.total_time /
                                      het.report.total_time,
                                  2),
                   TextTable::num(het.report.imbalance_all(), 2),
                   TextTable::num(homo.report.imbalance_all(), 2)});
  }
  bench::emit(table, setup.csv,
              "Ablation: WEA partitioning vs equal partitioning under "
              "growing processor heterogeneity (ATDCA, 16 nodes).");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hprs::run_main(argc, argv, run, 1);
}
