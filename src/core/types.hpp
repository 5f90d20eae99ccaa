// Shared types for the parallel hyperspectral algorithms.
#pragma once

#include <cstddef>

#include "core/partition.hpp"
#include "hsi/cube.hpp"

namespace hprs::core {

/// Spatial location of a pixel.
struct PixelLocation {
  std::size_t row = 0;
  std::size_t col = 0;

  bool operator==(const PixelLocation&) const = default;
};

/// The partition message scattered to workers.  Ranks share one address
/// space, so the payload is a view into the master's cube while the wire
/// cost (declared separately at the scatter call) is the full block size --
/// the same single-step distribution the paper implements with MPI derived
/// datatypes.
struct PartitionView {
  const hsi::HsiCube* cube = nullptr;
  RowPartition part;

  [[nodiscard]] std::size_t wire_bytes() const {
    return part.halo_rows() * cube->cols() * cube->bytes_per_pixel();
  }
};

}  // namespace hprs::core
