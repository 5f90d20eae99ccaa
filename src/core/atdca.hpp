// Automated Target Detection and Classification Algorithm (paper Alg. 2).
//
// Master/worker orthogonal-subspace-projection target finder: the master
// WEA-partitions the cube; workers find the brightest pixel; then, t-1
// times, the master broadcasts the grown target matrix U, each worker finds
// its local pixel maximizing the projection onto the orthogonal complement
// of span(U), and the master selects the global winner and appends it to U.
//
// Run through core::run_algorithm (core/runner.hpp): with
// PartitionPolicy::kHeterogeneous it is the paper's Hetero-ATDCA; with
// kHomogeneous it is the Homo-ATDCA baseline (identical numerics, equal
// partitions).  The returned targets are in extraction order (first = the
// brightest pixel of the scene).
#pragma once

#include <cstddef>

#include "core/partition.hpp"

namespace hprs::core {

/// Per-pixel workload model used by the WEA for this algorithm.
[[nodiscard]] WorkloadModel atdca_workload(std::size_t bands,
                                           std::size_t targets);

}  // namespace hprs::core
