// Unsupervised Fully Constrained Least Squares target detection
// (paper Alg. 3).
//
// Starts from the brightest pixel (steps 1-3 of ATDCA) and then grows the
// target set by repeatedly unmixing every pixel against the current targets
// under the full abundance constraints (non-negativity + sum-to-one) and
// taking the pixel with the largest reconstruction error as the next
// target.  Heterogeneous and homogeneous versions differ only in the
// partitioning policy.
#pragma once

#include <cstddef>

#include "core/partition.hpp"

namespace hprs::core {

/// Per-pixel workload model used by the WEA for this algorithm.
[[nodiscard]] WorkloadModel ufcls_workload(std::size_t bands,
                                           std::size_t targets);

}  // namespace hprs::core
