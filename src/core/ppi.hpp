// Parallel Pixel Purity Index (PPI) endmember extraction.
//
// PPI is the third classical target/endmember extractor of the
// hyperspectral literature alongside OSP (ATDCA) and least-squares error
// ranking (UFCLS), and the one the paper's companion cluster work (Plaza et
// al., JPDC 2006) parallelizes the same master/worker way.  The master
// draws K random unit vectors ("skewers") and broadcasts them; every worker
// projects each local pixel onto every skewer and marks the extreme
// (minimum and maximum) pixels; a pixel's purity index counts how often it
// was extreme.  The t highest-index pixels are returned as endmember
// candidates.
//
// Included both as a library feature and as a third data point for the
// heterogeneous-vs-homogeneous comparison: PPI is embarrassingly parallel
// with a single reduction, so it isolates the WEA's effect even more
// cleanly than ATDCA.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "core/partition.hpp"
#include "hsi/cube.hpp"
#include "linalg/matrix.hpp"

namespace hprs::core {

/// Per-pixel workload model used by the WEA for this algorithm.
[[nodiscard]] WorkloadModel ppi_workload(std::size_t bands,
                                         std::size_t skewers);

namespace detail {

/// One skewer's projection extremes over a chunk: the values plus the
/// pixel locations realizing them.
struct SkewerExtreme {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  std::size_t lo_row = 0, lo_col = 0;
  std::size_t hi_row = 0, hi_col = 0;
};

/// Per-skewer projection extremes over whole rows [row_begin, row_end):
/// each skewer folds the pixels in row-major order with strict `<` / `>`
/// updates, so the first pixel realizing an extreme wins a tie.
/// Dispatches between the per-skewer reference loop (one linalg::dot per
/// pixel and skewer) and the strip fast path, which projects each 64-pixel
/// strip onto every skewer with one linalg::dot_strip product; both return
/// bit-identical extremes.  The caller charges linalg::flops::dot(bands)
/// per pixel and skewer.
[[nodiscard]] std::vector<SkewerExtreme> ppi_extremes(
    const linalg::Matrix& skewers, const hsi::HsiCube& cube,
    std::size_t row_begin, std::size_t row_end);

}  // namespace detail

}  // namespace hprs::core
