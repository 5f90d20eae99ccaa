// Ablation: the data-partitioning argument of the paper's Section 2.1.
//
// Spectral-domain partitioning slices the cube into band ranges, so every
// full-spectrum kernel (SAD, OSP, unmixing) needs contributions from every
// processor for every pixel; the paper's hybrid strategy (spatial blocks
// that keep the full spectrum) makes per-pixel kernels communication-free.
// This bench quantifies the communication each strategy implies for one
// pass of per-pixel full-spectrum kernels, using the partition machinery
// and the platforms' measured link capacities.
#include <cstdio>

#include "bench_common.hpp"
#include "core/partition.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace hprs;
  const auto setup = bench::make_setup(argc, argv, bench::Summary::kNone);
  const auto& cube = setup.scene.cube;
  const std::size_t pixels = cube.pixel_count() * setup.config.replication;
  const std::size_t bands = cube.bands();

  TextTable table({"Network", "Strategy", "Exchange bytes/pass",
                   "Exchange time (s)", "Kernel passes / COM-second"});
  for (const auto& net : bench::paper_networks()) {
    // Hybrid (spatial blocks, full spectrum): per-pixel kernels touch only
    // local data; the only exchange is the per-kernel reduction of one
    // candidate record per worker.
    const double avg_link = net.average_link_ms_per_mbit();
    const auto seconds = [&](std::size_t bytes) {
      return static_cast<double>(bytes) * 8.0 / 1e6 * avg_link / 1000.0;
    };
    const std::size_t hybrid_bytes = net.size() * 24;

    // Spectral: each worker holds a band slice of every pixel.  One
    // full-spectrum kernel pass needs each worker's partial results for
    // every pixel reduced together: P-1 workers ship one partial (8 bytes)
    // per pixel to the combiner.
    const auto parts = core::spectral_partition(
        net, bands, core::PartitionPolicy::kHeterogeneous);
    (void)parts;  // band ranges; the volume depends only on P and pixels
    const std::size_t spectral_bytes = (net.size() - 1) * pixels * 8;

    for (const auto& [name, bytes] :
         {std::pair<const char*, std::size_t>{"hybrid (paper)", hybrid_bytes},
          std::pair<const char*, std::size_t>{"spectral-domain",
                                              spectral_bytes}}) {
      const double t = seconds(bytes);
      table.add_row({net.name(), name,
                     TextTable::num(static_cast<long long>(bytes)),
                     TextTable::num(t, 4),
                     t > 0 ? TextTable::num(1.0 / t, 2) : "inf"});
    }
  }
  bench::emit(table, setup.csv,
              "Ablation: communication per full-spectrum kernel pass under "
              "hybrid vs spectral-domain partitioning (Sec. 2.1).");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hprs::run_main(argc, argv, run, 1);
}
