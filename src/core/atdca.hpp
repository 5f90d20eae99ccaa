// Automated Target Detection and Classification Algorithm (paper Alg. 2).
//
// Master/worker orthogonal-subspace-projection target finder: the master
// WEA-partitions the cube; workers find the brightest pixel; then, t-1
// times, the master broadcasts the grown target matrix U, each worker finds
// its local pixel maximizing the projection onto the orthogonal complement
// of span(U), and the master selects the global winner and appends it to U.
//
// run_atdca with PartitionPolicy::kHeterogeneous is the paper's
// Hetero-ATDCA; with kHomogeneous it is the Homo-ATDCA baseline (identical
// numerics, equal partitions).
#pragma once

#include "core/partition.hpp"
#include "core/types.hpp"
#include "hsi/cube.hpp"
#include "simnet/platform.hpp"
#include "vmpi/engine.hpp"

namespace hprs::core {

struct AtdcaConfig {
  /// Number of targets t to extract (the paper uses 18, the intrinsic
  /// dimensionality of the WTC scene).
  std::size_t targets = 18;
  PartitionPolicy policy = PartitionPolicy::kHeterogeneous;
  /// Fraction of each node's memory available to its partition.
  double memory_fraction = 0.5;
  /// Virtual scale: each physical pixel stands for this many identical
  /// scene pixels in the timing model (see spmd_common.hpp).
  std::size_t replication = 1;
  /// Charge the full image distribution over the network instead of
  /// assuming pre-staged data (see DESIGN.md on why pre-staged is the
  /// default).  Also makes the WEA communication-aware.
  bool charge_data_staging = false;
  /// Rows per tile of the brightest/OSP sweeps; 0 = automatic
  /// (linalg::resolve_tile_rows).  Any value is numerics- and
  /// virtual-time-neutral unless tile_stream is on.
  std::size_t tile_rows = 0;
  /// Per-tile streamed staging overlapped with compute on accelerated
  /// ranks (collective schedule only).  Off reproduces the historic
  /// upfront-staging charge bit for bit.
  bool tile_stream = false;
};

/// Per-pixel workload model used by the WEA for this algorithm.
[[nodiscard]] WorkloadModel atdca_workload(std::size_t bands,
                                           std::size_t targets);

/// Runs ATDCA on the simulated platform.  The returned targets are in
/// extraction order (first = brightest pixel of the scene).
[[nodiscard]] TargetDetectionResult run_atdca(const simnet::Platform& platform,
                                              const hsi::HsiCube& cube,
                                              const AtdcaConfig& config,
                                              vmpi::Options options = {});

}  // namespace hprs::core
