// Morphological spatial/spectral classification (paper Alg. 5).
//
// Each worker receives its partition *with overlap borders* (redundant rows
// replacing halo communication -- the paper's design choice for reducing
// inter-processor traffic) and runs I_max iterations of multichannel
// morphology: for every pixel, the cumulative SAD D_B of each neighbor over
// the structuring element B identifies the most spectrally pure (dilation,
// argmax D_B) and most highly mixed (erosion, argmin D_B) neighbors; the
// morphological eccentricity index MEI(x, y) accumulates the SAD between
// the two picks, and the image is replaced by its dilation before the next
// iteration.  The c highest-MEI pixels per worker are merged by the master
// into p <= c unique class representatives; a final parallel pass labels
// every pixel by its most similar representative.
//
// Interpretation notes: the paper leaves |B| unspecified (its companion
// work uses square structuring elements; we default to 5x5 = radius 2) and
// says MEI is "updated" each iteration, which we read as a running maximum
// so scores stay in [0, pi].
#pragma once

#include "core/partition.hpp"
#include "core/types.hpp"
#include "hsi/cube.hpp"
#include "simnet/platform.hpp"
#include "vmpi/engine.hpp"

namespace hprs::core {

struct MorphConfig {
  /// Number of classes c (paper: 7).
  std::size_t classes = 7;
  /// Morphological iterations I_max (paper: 5).
  std::size_t iterations = 5;
  /// Structuring-element radius (B is the (2r+1) x (2r+1) square).
  std::size_t kernel_radius = 2;
  /// SAD threshold for the master's unique-set merge.
  double sad_threshold = 0.06;
  PartitionPolicy policy = PartitionPolicy::kHeterogeneous;
  double memory_fraction = 0.5;
  /// Virtual scale (see spmd_common.hpp).
  std::size_t replication = 1;
  /// Charge the full image distribution over the network instead of
  /// assuming pre-staged data (see DESIGN.md on why pre-staged is the
  /// default).  Also makes the WEA communication-aware.
  bool charge_data_staging = false;
  /// When false, skips the overlap borders and exchanges halo rows between
  /// neighboring ranks before every iteration instead (the communication-
  /// heavy alternative ablated in bench_ablation_overlap).  That mode
  /// cannot survive rank crashes: run_morph refuses crash plans.
  bool overlap_borders = true;
};

/// Per-pixel workload model used by the WEA for this algorithm.
[[nodiscard]] WorkloadModel morph_workload(std::size_t bands,
                                           const MorphConfig& config);

[[nodiscard]] ClassificationResult run_morph(const simnet::Platform& platform,
                                             const hsi::HsiCube& cube,
                                             const MorphConfig& config,
                                             vmpi::Options options = {});

}  // namespace hprs::core
