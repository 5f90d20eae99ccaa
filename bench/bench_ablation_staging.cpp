// Ablation: what would shipping the image cube from the master over the
// measured links cost?  The paper's reported times are only consistent with
// pre-staged image data (see DESIGN.md); this bench quantifies the
// difference and shows the communication-aware WEA softening the blow.
#include "bench_common.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace hprs;
  const auto setup = bench::make_setup(argc, argv, bench::Summary::kNone);

  TextTable table({"Network", "Pre-staged (s)", "Staged hetero (s)",
                   "Staged homo (s)", "Staging penalty"});
  for (const auto& net : bench::paper_networks()) {
    auto cfg = setup.config;
    cfg.algorithm = core::Algorithm::kAtdca;
    cfg.charge_data_staging = false;
    const auto base = core::run_algorithm(net, setup.scene.cube, cfg);
    cfg.charge_data_staging = true;
    const auto staged_het = core::run_algorithm(net, setup.scene.cube, cfg);
    cfg.policy = core::PartitionPolicy::kHomogeneous;
    const auto staged_homo = core::run_algorithm(net, setup.scene.cube, cfg);
    table.add_row({net.name(), TextTable::num(base.report.total_time, 0),
                   TextTable::num(staged_het.report.total_time, 0),
                   TextTable::num(staged_homo.report.total_time, 0),
                   TextTable::num(staged_het.report.total_time /
                                      base.report.total_time,
                                  2)});
  }
  bench::emit(table, setup.csv,
              "Ablation: charging full image distribution over the "
              "network vs pre-staged data (ATDCA).");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hprs::run_main(argc, argv, run, 1);
}
