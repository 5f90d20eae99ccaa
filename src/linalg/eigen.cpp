#include "linalg/eigen.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "linalg/kernels.hpp"

namespace hprs::linalg {

namespace {

/// Sum of squares of strictly-off-diagonal entries of the n x n row-major
/// matrix at `a`, added in row-major order.
double off_diagonal_sq(const double* a, std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = a + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) s += row[j] * row[j];
    }
  }
  return s;
}

double off_diagonal_sq(const Matrix& a) {
  return off_diagonal_sq(a.data().data(), a.rows());
}

/// The scalar cyclic Jacobi loop: each rotation updates columns p and q of
/// A, then rows p and q, then columns p and q of V.  Kept as the oracle of
/// jacobi_eigen_rows (selected by use_reference_kernels()).
EigenDecomposition jacobi_eigen_reference(const Matrix& symmetric, double tol,
                                          int max_sweeps) {
  const std::size_t n = symmetric.rows();
  Matrix a = symmetric;
  Matrix v = Matrix::identity(n);

  double diag_sq = 0.0;
  for (std::size_t i = 0; i < n; ++i) diag_sq += a(i, i) * a(i, i);
  const double stop = tol * tol * std::max(diag_sq, 1e-300);

  EigenDecomposition out;
  while (out.sweeps < max_sweeps && off_diagonal_sq(a) > stop) {
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = a(p, q);
        if (apq == 0.0) continue;
        // 2x2 symmetric Schur decomposition (Golub & Van Loan, Alg. 8.4.1).
        const double theta = (a(q, q) - a(p, p)) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        // Apply the rotation to rows/columns p and q of A.
        for (std::size_t k = 0; k < n; ++k) {
          const double akp = a(k, p);
          const double akq = a(k, q);
          a(k, p) = c * akp - s * akq;
          a(k, q) = s * akp + c * akq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double apk = a(p, k);
          const double aqk = a(q, k);
          a(p, k) = c * apk - s * aqk;
          a(q, k) = s * apk + c * aqk;
        }
        // Accumulate the eigenvector rotation.
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = v(k, p);
          const double vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
    ++out.sweeps;
  }
  HPRS_REQUIRE(off_diagonal_sq(a) <= stop || max_sweeps == 0,
               "Jacobi eigensolver did not converge");

  // Sort eigenpairs by decreasing eigenvalue.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t i, std::size_t j) {
    return a(i, i) > a(j, j);
  });

  out.values.resize(n);
  out.vectors = Matrix(n, n);
  for (std::size_t k = 0; k < n; ++k) {
    out.values[k] = a(order[k], order[k]);
    for (std::size_t r = 0; r < n; ++r) {
      out.vectors(k, r) = v(r, order[k]);
    }
  }
  return out;
}

/// The column half of one rotation of the current p-sweep, applied to the
/// other rows after the fact.
struct ColumnRotation {
  std::size_t q;
  double c;
  double s;
};

/// Applies the column halves rot[from, to) to entries p and q of each of
/// the R rows, in order: the operations the reference applies to those
/// entries, with entry p carried in a register.  One row's chain through
/// entry p is latency-bound; R independent chains fill the pipeline.
template <std::size_t R>
void rotate_columns(double* const (&rows)[R], std::size_t p,
                    const ColumnRotation* rot, std::size_t from,
                    std::size_t to) {
  double x[R];
  for (std::size_t r = 0; r < R; ++r) x[r] = rows[r][p];
  for (std::size_t k = from; k < to; ++k) {
    const auto [q, c, s] = rot[k];
    for (std::size_t r = 0; r < R; ++r) {
      const double y = rows[r][q];
      rows[r][q] = s * x[r] + c * y;
      x[r] = c * x[r] - s * y;
    }
  }
  for (std::size_t r = 0; r < R; ++r) rows[r][p] = x[r];
}

/// Brings rows [first, last) of the n x n matrix at `a` up to date with
/// every column half in `rot`.  done[i] counts the halves row i has
/// already taken.  Rows go in groups of four: each row of a group first
/// catches up alone to the group's furthest row, then the group runs the
/// rest together.
void catch_up_rows(double* a, std::size_t n, std::size_t p,
                   const std::vector<ColumnRotation>& rot,
                   std::vector<std::size_t>& done, std::size_t first,
                   std::size_t last) {
  const std::size_t to = rot.size();
  for (std::size_t i = first; i < last; i += 4) {
    const std::size_t end = std::min(i + 4, last);
    std::size_t from = to;
    if (end - i == 4) {
      from = *std::max_element(done.begin() + static_cast<std::ptrdiff_t>(i),
                               done.begin() + static_cast<std::ptrdiff_t>(end));
    }
    for (std::size_t r = i; r < end; ++r) {
      double* const row[1] = {a + r * n};
      rotate_columns(row, p, rot.data(), done[r], from);
      done[r] = to;
    }
    if (from < to) {
      double* const rows[4] = {a + i * n, a + (i + 1) * n, a + (i + 2) * n,
                               a + (i + 3) * n};
      rotate_columns(rows, p, rot.data(), from, to);
    }
  }
}

/// The reference loop with every access along a row.  A rotation (p, q)
/// acts on A twice: its column half mixes entries p and q *within* each
/// row, its row half mixes rows p and q.  Within one p-sweep, row p takes
/// both halves at once; row q takes the sweep's earlier column halves just
/// before its own rotation (they touch entries p and q' < q of row q, which
/// nothing else touches meanwhile); every other row takes its pending
/// column halves after the sweep.  So every element of A sees the same
/// operations in the same order as in the reference, for any square input.
/// Eigenvectors accumulate as rows of V^T, which turns V's column update
/// into a row update.
EigenDecomposition jacobi_eigen_rows(const Matrix& symmetric, double tol,
                                     int max_sweeps) {
  const std::size_t n = symmetric.rows();
  Matrix a_mat = symmetric;
  Matrix vt_mat = Matrix::identity(n);
  double* const a = a_mat.data().data();
  double* const vt = vt_mat.data().data();

  double diag_sq = 0.0;
  for (std::size_t i = 0; i < n; ++i) diag_sq += a[i * n + i] * a[i * n + i];
  const double stop = tol * tol * std::max(diag_sq, 1e-300);

  std::vector<ColumnRotation> rot;
  rot.reserve(n);
  std::vector<std::size_t> done(n);

  EigenDecomposition out;
  while (out.sweeps < max_sweeps && off_diagonal_sq(a, n) > stop) {
    for (std::size_t p = 0; p + 1 < n; ++p) {
      double* const ap = a + p * n;
      double* const vp = vt + p * n;
      rot.clear();
      std::fill(done.begin(), done.end(), std::size_t{0});
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = ap[q];
        if (apq == 0.0) continue;
        if (done[q] < rot.size()) {
          // Catch up row q with the rows of its aligned group of four.
          const std::size_t group = q - (q - p - 1) % 4;
          catch_up_rows(a, n, p, rot, done, group, std::min(group + 4, n));
        }
        double* const aq = a + q * n;
        double* const vq = vt + q * n;
        // 2x2 symmetric Schur decomposition (Golub & Van Loan, Alg. 8.4.1).
        const double theta = (aq[q] - ap[p]) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        // Column half on rows p and q, then the row half.
        const double app = ap[p];
        ap[p] = c * app - s * apq;
        ap[q] = s * app + c * apq;
        const double aqp = aq[p];
        const double aqq = aq[q];
        aq[p] = c * aqp - s * aqq;
        aq[q] = s * aqp + c * aqq;
        for (std::size_t k = 0; k < n; ++k) {
          const double apk = ap[k];
          const double aqk = aq[k];
          ap[k] = c * apk - s * aqk;
          aq[k] = s * apk + c * aqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double vpk = vp[k];
          const double vqk = vq[k];
          vp[k] = c * vpk - s * vqk;
          vq[k] = s * vpk + c * vqk;
        }
        rot.push_back({q, c, s});
        done[q] = rot.size();
      }
      catch_up_rows(a, n, p, rot, done, 0, p);
      catch_up_rows(a, n, p, rot, done, p + 1, n);
    }
    ++out.sweeps;
  }
  HPRS_REQUIRE(off_diagonal_sq(a, n) <= stop || max_sweeps == 0,
               "Jacobi eigensolver did not converge");

  // Sort eigenpairs by decreasing eigenvalue; row k of V^T is eigenvector k.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t i, std::size_t j) {
    return a[i * n + i] > a[j * n + j];
  });

  out.values.resize(n);
  out.vectors = Matrix(n, n);
  for (std::size_t k = 0; k < n; ++k) {
    out.values[k] = a[order[k] * n + order[k]];
    const auto src = vt_mat.row(order[k]);
    std::copy(src.begin(), src.end(), out.vectors.row(k).begin());
  }
  return out;
}

}  // namespace

EigenDecomposition jacobi_eigen(const Matrix& symmetric, double tol,
                                int max_sweeps) {
  HPRS_REQUIRE(symmetric.rows() == symmetric.cols(),
               "eigendecomposition requires a square matrix");
  HPRS_REQUIRE(symmetric.rows() > 0, "empty matrix");
  return use_reference_kernels()
             ? jacobi_eigen_reference(symmetric, tol, max_sweeps)
             : jacobi_eigen_rows(symmetric, tol, max_sweeps);
}

}  // namespace hprs::linalg
