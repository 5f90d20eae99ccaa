// Ablation: static vs adaptive workload estimation under time-varying
// background load.
//
// The paper's introduction motivates heterogeneous platforms assembled
// from user workstations, whose effective speed changes as owners use
// them; its conclusions point at dynamic environments as future work.
// This bench draws a deterministic sequence of background-load snapshots
// over the Table 1 network and compares, per epoch, the compute makespan
// max_i(alpha_i * W * w_i^loaded) of three partitioning strategies:
//
//   equal     -- the homogeneous baseline (alpha = 1/P),
//   static    -- WEA fractions computed once from the nominal cycle-times,
//   adaptive  -- WEA fractions recomputed from each epoch's loaded speeds.
//
// Expected shape: adaptive <= static <= equal per epoch; static still beats
// equal (nominal heterogeneity dominates), adaptive recovers most of the
// load-induced loss.
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "core/atdca.hpp"
#include "core/partition.hpp"
#include "simnet/load.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace hprs;
  const auto setup = bench::make_setup(argc, argv, bench::Summary::kNone);
  const auto& cube = setup.scene.cube;

  const simnet::Platform nominal = simnet::fully_heterogeneous();
  const auto model = core::atdca_workload(cube.bands(), setup.config.targets);
  const double work_mflops =
      model.flops_per_pixel * 1e-6 *
      static_cast<double>(cube.pixel_count() * setup.config.replication);

  // Compute makespan of a fraction vector against loaded cycle-times.
  const auto makespan = [&](const std::vector<double>& alpha,
                            const simnet::Platform& loaded) {
    double worst = 0.0;
    for (std::size_t i = 0; i < loaded.size(); ++i) {
      worst = std::max(worst, alpha[i] * work_mflops * loaded.cycle_time(i));
    }
    return worst;
  };

  const auto static_alpha =
      core::wea_partition(nominal, cube.rows(), cube.cols(), model,
                          core::PartitionPolicy::kHeterogeneous)
          .alpha;
  const std::vector<double> equal_alpha(nominal.size(),
                                        1.0 / static_cast<double>(
                                                  nominal.size()));

  const auto epochs = simnet::load_epochs(nominal.size(), 8, 0.7, 42);
  TextTable table({"Epoch", "Equal (s)", "Static WEA (s)", "Adaptive WEA (s)",
                   "Static/Adaptive"});
  double sum_static = 0.0;
  double sum_adaptive = 0.0;
  for (std::size_t e = 0; e < epochs.size(); ++e) {
    const simnet::Platform loaded =
        simnet::with_background_load(nominal, epochs[e]);
    const auto adaptive_alpha =
        core::wea_partition(loaded, cube.rows(), cube.cols(), model,
                            core::PartitionPolicy::kHeterogeneous)
            .alpha;
    const double t_equal = makespan(equal_alpha, loaded);
    const double t_static = makespan(static_alpha, loaded);
    const double t_adaptive = makespan(adaptive_alpha, loaded);
    sum_static += t_static;
    sum_adaptive += t_adaptive;
    table.add_row({TextTable::num(static_cast<long long>(e + 1)),
                   TextTable::num(t_equal, 1), TextTable::num(t_static, 1),
                   TextTable::num(t_adaptive, 1),
                   TextTable::num(t_static / t_adaptive, 2)});
  }
  bench::emit(table, setup.csv,
              "Ablation: partitioning under time-varying background load "
              "(ATDCA compute makespan per epoch).");
  std::printf("\nre-estimating the WEA per epoch saves %.1f%% over a "
              "static heterogeneous partitioning\n",
              100.0 * (1.0 - sum_adaptive / sum_static));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hprs::run_main(argc, argv, run, 1);
}
