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

#include "core/partition.hpp"

namespace hprs::core {

/// Per-pixel workload model used by the WEA for this algorithm.
[[nodiscard]] WorkloadModel ppi_workload(std::size_t bands,
                                         std::size_t skewers);

}  // namespace hprs::core
