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

#include "core/partition.hpp"
#include "core/types.hpp"
#include "hsi/cube.hpp"
#include "simnet/platform.hpp"
#include "vmpi/engine.hpp"

namespace hprs::core {

struct UfclsConfig {
  std::size_t targets = 18;
  PartitionPolicy policy = PartitionPolicy::kHeterogeneous;
  double memory_fraction = 0.5;
  /// Virtual scale: each physical pixel stands for this many identical
  /// scene pixels in the timing model (see spmd_common.hpp).
  std::size_t replication = 1;
  /// Charge the full image distribution over the network instead of
  /// assuming pre-staged data (see DESIGN.md on why pre-staged is the
  /// default).  Also makes the WEA communication-aware.
  bool charge_data_staging = false;
};

/// Per-pixel workload model used by the WEA for this algorithm.
[[nodiscard]] WorkloadModel ufcls_workload(std::size_t bands,
                                           std::size_t targets);

[[nodiscard]] TargetDetectionResult run_ufcls(const simnet::Platform& platform,
                                              const hsi::HsiCube& cube,
                                              const UfclsConfig& config,
                                              vmpi::Options options = {});

}  // namespace hprs::core
