// Symmetric eigensolver for the PCT covariance step.
//
// The principal component transform needs all eigenpairs of the bands x
// bands covariance matrix (224 x 224 for AVIRIS), sorted by decreasing
// eigenvalue.  A cyclic Jacobi iteration is simple, unconditionally stable
// for symmetric input, and has a clean analytic flop count
// (flops::jacobi_sweep) for the virtual-time model.  It is also the
// largest host cost of a served PCT request, so the default path works
// along rows only (the column half of each rotation is deferred per row)
// while every element sees the reference loop's operations in the same
// order: results are bit-identical to the scalar reference, which
// use_reference_kernels() selects (linalg/kernels.hpp, DESIGN.md §7).
#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace hprs::linalg {

struct EigenDecomposition {
  /// Eigenvalues in decreasing order.
  std::vector<double> values;
  /// Row k of `vectors` is the unit eigenvector for values[k].
  Matrix vectors;
  /// Number of full Jacobi sweeps performed (exposed so callers can charge
  /// the exact virtual compute cost).
  int sweeps = 0;
};

/// Computes the full eigendecomposition of a symmetric matrix by cyclic
/// Jacobi rotations.  `tol` bounds the off-diagonal Frobenius norm relative
/// to the diagonal; `max_sweeps` guards termination.
[[nodiscard]] EigenDecomposition jacobi_eigen(const Matrix& symmetric,
                                              double tol = 1e-12,
                                              int max_sweeps = 64);

}  // namespace hprs::linalg
