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

#include <cstddef>

#include "core/partition.hpp"

namespace hprs::core {

/// Per-pixel workload model used by the WEA for this algorithm.
[[nodiscard]] WorkloadModel pct_workload(std::size_t bands,
                                         std::size_t classes);

}  // namespace hprs::core
