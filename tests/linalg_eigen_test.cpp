#include "linalg/eigen.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "hsi/scene.hpp"
#include "linalg/kernels.hpp"
#include "linalg/vec.hpp"

namespace hprs::linalg {
namespace {

Matrix random_symmetric(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      a(i, j) = rng.uniform(-2, 2);
      a(j, i) = a(i, j);
    }
  }
  return a;
}

TEST(JacobiEigenTest, DiagonalMatrixIsItsOwnDecomposition) {
  Matrix a(3, 3);
  a(0, 0) = 1.0;
  a(1, 1) = 5.0;
  a(2, 2) = 3.0;
  const auto eig = jacobi_eigen(a);
  ASSERT_EQ(eig.values.size(), 3u);
  EXPECT_NEAR(eig.values[0], 5.0, 1e-12);
  EXPECT_NEAR(eig.values[1], 3.0, 1e-12);
  EXPECT_NEAR(eig.values[2], 1.0, 1e-12);
}

TEST(JacobiEigenTest, Known2x2Eigenvalues) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  const Matrix a(2, 2, {2, 1, 1, 2});
  const auto eig = jacobi_eigen(a);
  EXPECT_NEAR(eig.values[0], 3.0, 1e-12);
  EXPECT_NEAR(eig.values[1], 1.0, 1e-12);
  // Leading eigenvector is (1,1)/sqrt(2) up to sign.
  const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
  EXPECT_NEAR(std::abs(eig.vectors(0, 0)), inv_sqrt2, 1e-10);
  EXPECT_NEAR(std::abs(eig.vectors(0, 1)), inv_sqrt2, 1e-10);
}

TEST(JacobiEigenTest, RejectsNonSquare) {
  EXPECT_THROW((void)jacobi_eigen(Matrix(2, 3)), Error);
}

TEST(JacobiEigenTest, ValuesAreSortedDescending) {
  const Matrix a = random_symmetric(12, 99);
  const auto eig = jacobi_eigen(a);
  for (std::size_t i = 1; i < eig.values.size(); ++i) {
    EXPECT_GE(eig.values[i - 1], eig.values[i]);
  }
}

TEST(JacobiEigenTest, TraceEqualsEigenvalueSum) {
  const Matrix a = random_symmetric(9, 17);
  const auto eig = jacobi_eigen(a);
  double trace = 0.0;
  for (std::size_t i = 0; i < 9; ++i) trace += a(i, i);
  double sum = 0.0;
  for (double v : eig.values) sum += v;
  EXPECT_NEAR(trace, sum, 1e-10);
}

class EigenSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EigenSizeSweep, EigenvectorsAreOrthonormal) {
  const std::size_t n = GetParam();
  const auto eig = jacobi_eigen(random_symmetric(n, n * 5 + 3));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double d =
          dot<double, double>(eig.vectors.row(i), eig.vectors.row(j));
      EXPECT_NEAR(d, i == j ? 1.0 : 0.0, 1e-9) << "i=" << i << " j=" << j;
    }
  }
}

TEST_P(EigenSizeSweep, SatisfiesEigenEquation) {
  const std::size_t n = GetParam();
  const Matrix a = random_symmetric(n, n * 11 + 7);
  const auto eig = jacobi_eigen(a);
  for (std::size_t k = 0; k < n; ++k) {
    const auto av = a.multiply(eig.vectors.row(k));
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(av[i], eig.values[k] * eig.vectors(k, i), 1e-8)
          << "pair " << k << " component " << i;
    }
  }
}

TEST_P(EigenSizeSweep, ReconstructsOriginalMatrix) {
  const std::size_t n = GetParam();
  const Matrix a = random_symmetric(n, n * 13 + 1);
  const auto eig = jacobi_eigen(a);
  // A = sum_k lambda_k v_k v_k^T
  Matrix recon(n, n);
  for (std::size_t k = 0; k < n; ++k) {
    const auto v = eig.vectors.row(k);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        recon(i, j) += eig.values[k] * v[i] * v[j];
      }
    }
  }
  EXPECT_LE(recon.max_abs_diff(a), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenSizeSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 32));

TEST(JacobiEigenTest, HandlesAvirisSizedCovariance) {
  // The PCT path decomposes 224 x 224 covariance matrices; verify the
  // solver converges and stays orthonormal at that size.
  const std::size_t n = 224;
  Xoshiro256 rng(2006);
  Matrix b(64, n);  // rank-64 covariance plus a ridge, like real image stats
  for (auto& v : b.data()) v = rng.uniform(-1, 1);
  Matrix cov = b.gram();
  for (std::size_t i = 0; i < n; ++i) cov(i, i) += 1e-3;
  const auto eig = jacobi_eigen(cov);
  EXPECT_GT(eig.values.front(), eig.values.back());
  EXPECT_GT(eig.values.back(), 0.0);
  EXPECT_GT(eig.sweeps, 0);
  double sum = 0.0;
  for (double v : eig.values) sum += v;
  double trace = 0.0;
  for (std::size_t i = 0; i < n; ++i) trace += cov(i, i);
  EXPECT_NEAR(sum, trace, 1e-6 * trace);
}

// --- Row-only solver against the reference ------------------------------
//
// jacobi_eigen's default path defers the column half of every rotation and
// works along rows only; the scalar reference (use_reference_kernels()) is
// its oracle.  Each element must see the same operations in the same order,
// so values, vectors and sweeps are compared bit for bit.

/// One path's result: the decomposition, or the message it threw with (up
/// to the requirement's source location, which differs between the paths).
struct PathResult {
  std::optional<EigenDecomposition> eig;
  std::string error;
};

PathResult solve_on_path(const Matrix& a, bool reference, int max_sweeps) {
  const ScopedKernelPath path(reference);
  PathResult out;
  try {
    out.eig = jacobi_eigen(a, 1e-12, max_sweeps);
  } catch (const Error& e) {
    out.error = e.what();
    out.error = out.error.substr(0, out.error.find(" [requirement"));
  }
  return out;
}

void expect_paths_identical(const Matrix& a, int max_sweeps = 64) {
  const PathResult ref = solve_on_path(a, true, max_sweeps);
  const PathResult fast = solve_on_path(a, false, max_sweeps);
  ASSERT_EQ(ref.eig.has_value(), fast.eig.has_value())
      << "reference: " << ref.error << "; row-only: " << fast.error;
  if (!ref.eig) {
    EXPECT_EQ(ref.error, fast.error);
    return;
  }
  const std::size_t n = a.rows();
  EXPECT_EQ(ref.eig->sweeps, fast.eig->sweeps);
  ASSERT_EQ(ref.eig->values.size(), n);
  ASSERT_EQ(fast.eig->values.size(), n);
  EXPECT_EQ(std::memcmp(ref.eig->values.data(), fast.eig->values.data(),
                        n * sizeof(double)),
            0);
  ASSERT_EQ(ref.eig->vectors.data().size(), n * n);
  ASSERT_EQ(fast.eig->vectors.data().size(), n * n);
  EXPECT_EQ(std::memcmp(ref.eig->vectors.data().data(),
                        fast.eig->vectors.data().data(),
                        n * n * sizeof(double)),
            0);
}

/// Band covariance of a small synthetic WTC scene.
Matrix wtc_covariance(std::size_t bands) {
  hsi::SceneConfig cfg;
  cfg.rows = 16;
  cfg.cols = 16;
  cfg.bands = bands;
  const hsi::Scene scene = hsi::generate_wtc_scene(cfg);
  const std::size_t pixels = scene.cube.pixel_count();
  std::vector<double> mean(bands, 0.0);
  for (std::size_t i = 0; i < pixels; ++i) {
    const auto px = scene.cube.pixel(i);
    for (std::size_t b = 0; b < bands; ++b) mean[b] += px[b];
  }
  for (double& m : mean) m /= static_cast<double>(pixels);
  Matrix cov(bands, bands);
  for (std::size_t i = 0; i < pixels; ++i) {
    const auto px = scene.cube.pixel(i);
    for (std::size_t r = 0; r < bands; ++r) {
      for (std::size_t c = 0; c < bands; ++c) {
        cov(r, c) += (px[r] - mean[r]) * (px[c] - mean[c]);
      }
    }
  }
  return cov;
}

TEST(JacobiEigenPathsTest, RandomSymmetricMatricesAreBitIdentical) {
  for (const std::size_t n : {1, 2, 3, 4, 5, 63, 64, 65, 224}) {
    SCOPED_TRACE(n);
    expect_paths_identical(random_symmetric(n, 1000 + n));
  }
}

TEST(JacobiEigenPathsTest, ExactZeroOffDiagonalsStaySkipped) {
  // Random exact zeros: skipped rotations in the first sweep.
  Matrix a = random_symmetric(37, 5);
  Xoshiro256 rng(6);
  for (std::size_t i = 0; i < 37; ++i) {
    for (std::size_t j = i + 1; j < 37; ++j) {
      if (rng.uniform() < 0.4) {
        a(i, j) = 0.0;
        a(j, i) = 0.0;
      }
    }
  }
  expect_paths_identical(a);
  // Block diagonal with 3 x 3 blocks: rotations never leave a block, so the
  // cross-block zeros are skipped in every sweep, and the rotated rows fall
  // at every offset of the solver's groups of four rows.
  Matrix b(23, 23);
  const Matrix r = random_symmetric(23, 7);
  for (std::size_t i = 0; i < 23; ++i) {
    for (std::size_t j = 0; j < 23; ++j) {
      if (i / 3 == j / 3) b(i, j) = r(i, j);
    }
  }
  expect_paths_identical(b);
  // Negative zeros off the diagonal.
  Matrix z = random_symmetric(9, 8);
  z(0, 4) = -0.0;
  z(4, 0) = -0.0;
  z(2, 7) = -0.0;
  z(7, 2) = 0.0;
  expect_paths_identical(z);
  // An uncoupled index with a -0 diagonal: every rotation through it is
  // skipped, so its eigenvalue stays -0.  Applying the skipped rotations as
  // c = 1, s = 0 would compute 0 * a(6, p) + a(6, 6) = +0.
  Matrix iso = random_symmetric(10, 9);
  for (std::size_t j = 0; j < 10; ++j) {
    iso(6, j) = 0.0;
    iso(j, 6) = 0.0;
  }
  iso(6, 6) = -0.0;
  expect_paths_identical(iso);
}

TEST(JacobiEigenPathsTest, DiagonalMatrixIsBitIdentical) {
  Matrix a(6, 6);
  for (std::size_t i = 0; i < 6; ++i) {
    a(i, i) = static_cast<double>((i * 7) % 6) - 2.5;
  }
  expect_paths_identical(a);
}

TEST(JacobiEigenPathsTest, AsymmetricInputsAreBitIdentical) {
  // One-ulp asymmetry, as a covariance accumulated in two orders has.
  Matrix a = random_symmetric(40, 9);
  for (std::size_t i = 0; i + 3 < 40; i += 3) {
    a(i, i + 3) = std::nextafter(a(i, i + 3), 10.0);
  }
  expect_paths_identical(a);
  // A fully asymmetric matrix: whatever the iteration does (converge or
  // exhaust its sweeps), both paths must do it identically.
  Matrix b(12, 12);
  Xoshiro256 rng(10);
  for (auto& v : b.data()) v = rng.uniform() * 4.0 - 2.0;
  expect_paths_identical(b);
}

TEST(JacobiEigenPathsTest, WtcCovarianceIsBitIdentical) {
  expect_paths_identical(wtc_covariance(32));
  expect_paths_identical(wtc_covariance(224));
}

TEST(JacobiEigenPathsTest, SweepLimitsGiveIdenticalResultsOrThrows) {
  const Matrix wtc = wtc_covariance(32);
  const Matrix rnd = random_symmetric(65, 11);
  for (const int max_sweeps : {0, 1, 2}) {
    SCOPED_TRACE(max_sweeps);
    expect_paths_identical(wtc, max_sweeps);
    expect_paths_identical(rnd, max_sweeps);
  }
  // One sweep cannot converge a dense 65 x 65 matrix: both paths throw.
  EXPECT_FALSE(solve_on_path(rnd, false, 1).eig.has_value());
}

}  // namespace
}  // namespace hprs::linalg
