// Principal-component-transform classification (paper Alg. 4).
//
// Pipeline: (1) WEA partition + scatter; (2) each worker extracts a small
// "unique spectral set" of mutually dissimilar pixels by SAD-threshold
// deduplication; (3) the master merges the worker sets into c class
// representatives; (4-6) band means and the bands x bands covariance matrix
// are accumulated in parallel over partitions and combined sequentially at
// the master; (7) the master solves the symmetric eigenproblem sequentially
// (the step that limits PCT's scalability in the paper); (8) workers
// project their pixels onto the leading c principal components; (9) workers
// label every pixel by the most similar (SAD in the reduced space) class
// representative and the master assembles the label image.
//
// Interpretation note: the paper's abbreviated description computes the
// mean/covariance over the merged unique set; with c = 7 representatives
// that covariance is rank-deficient and statistically meaningless, and the
// standard parallel PCT the paper builds on (Achalakul & Taylor) uses
// full-image statistics, which is what we implement.  DESIGN.md records
// the deviation.
#pragma once

#include "core/partition.hpp"
#include "core/types.hpp"
#include "hsi/cube.hpp"
#include "simnet/platform.hpp"
#include "vmpi/engine.hpp"

namespace hprs::core {

struct PctConfig {
  /// Number of classes c (the paper uses 7, the USGS dust/debris classes).
  std::size_t classes = 7;
  /// SAD threshold (radians) for the unique-set deduplication; two pixels
  /// closer than this are considered the same substance.
  double sad_threshold = 0.06;
  PartitionPolicy policy = PartitionPolicy::kHeterogeneous;
  double memory_fraction = 0.5;
  /// Virtual scale (see spmd_common.hpp).
  std::size_t replication = 1;
  /// Charge the full image distribution over the network instead of
  /// assuming pre-staged data (see DESIGN.md on why pre-staged is the
  /// default).  Also makes the WEA communication-aware.
  bool charge_data_staging = false;
  /// Rows per tile of the mean/covariance sweeps; 0 = automatic
  /// (linalg::resolve_tile_rows).  Any value is numerics- and
  /// virtual-time-neutral unless tile_stream is on.
  std::size_t tile_rows = 0;
  /// Per-tile streamed staging overlapped with compute on accelerated
  /// ranks (collective schedule only).  Off reproduces the historic
  /// upfront-staging charge bit for bit.
  bool tile_stream = false;
};

/// Per-pixel workload model used by the WEA for this algorithm.
[[nodiscard]] WorkloadModel pct_workload(std::size_t bands,
                                         std::size_t classes);

[[nodiscard]] ClassificationResult run_pct(const simnet::Platform& platform,
                                           const hsi::HsiCube& cube,
                                           const PctConfig& config,
                                           vmpi::Options options = {});

}  // namespace hprs::core
