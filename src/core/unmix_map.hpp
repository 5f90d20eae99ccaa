// Parallel abundance mapping: fully constrained unmixing of every pixel
// against a fixed endmember set.
//
// This is the downstream product the paper's motivating applications
// consume -- once ATDCA/UFCLS/PPI have extracted target signatures, the
// per-pixel abundance planes say *how much* of each material sits where
// (the USGS WTC dust maps are exactly such products).  Parallelization is
// the same master/worker WEA pattern, run as one phase of the collective
// driver (core/ft.hpp): the endmember matrix is broadcast, every worker
// unmixes its partition, and the planes are gathered.
#pragma once

#include <span>

#include "core/partition.hpp"
#include "core/types.hpp"
#include "hsi/cube.hpp"
#include "linalg/matrix.hpp"
#include "simnet/platform.hpp"
#include "vmpi/engine.hpp"

namespace hprs::core {

struct UnmixMapConfig {
  PartitionPolicy policy = PartitionPolicy::kHeterogeneous;
  double memory_fraction = 0.5;
  std::size_t replication = 1;
  bool charge_data_staging = false;
};

struct AbundanceMaps {
  std::size_t endmembers = 0;
  std::size_t rows = 0;
  std::size_t cols = 0;
  /// Endmember-major planes: plane e holds rows*cols abundances in [0, 1].
  std::vector<float> planes;
  /// Per-pixel root-mean-square reconstruction error.
  std::vector<float> rmse;
  vmpi::RunReport report;

  [[nodiscard]] std::span<const float> plane(std::size_t e) const {
    return {planes.data() + e * rows * cols, rows * cols};
  }
  /// Index of the dominant endmember at (row, col).
  [[nodiscard]] std::size_t dominant(std::size_t row, std::size_t col) const;
};

/// Per-pixel workload model used by the WEA for this computation.
[[nodiscard]] WorkloadModel unmix_workload(std::size_t bands,
                                           std::size_t endmembers);

/// Unmixes the cube against `endmembers` (one signature per row, matching
/// the cube's band count) on the simulated platform.
[[nodiscard]] AbundanceMaps run_unmix_map(const simnet::Platform& platform,
                                          const hsi::HsiCube& cube,
                                          const linalg::Matrix& endmembers,
                                          const UnmixMapConfig& config,
                                          vmpi::Options options = {});

/// Convenience: copies the spectra at `locations` (e.g. ATDCA targets) out
/// of the cube into an endmember matrix.
[[nodiscard]] linalg::Matrix endmembers_at(
    const hsi::HsiCube& cube, std::span<const PixelLocation> locations);

}  // namespace hprs::core
