// Property tests pinning the blocked fast-path kernels against the scalar
// reference loops.  Every comparison is EXACT (EXPECT_EQ on doubles): the
// fast paths are engineered to preserve each output element's chain of
// floating-point additions, and these tests are what enforce that contract
// across tile-remainder shapes.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "core/spmd_common.hpp"
#include "hsi/cube.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "linalg/solve.hpp"
#include "linalg/vec.hpp"

namespace hprs {
namespace {

linalg::Matrix random_matrix(std::size_t rows, std::size_t cols,
                             std::uint64_t seed) {
  Xoshiro256 rng(seed);
  linalg::Matrix m(rows, cols);
  for (auto& v : m.data()) v = rng.uniform(-1.0, 1.0);
  return m;
}

std::vector<float> random_floats(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(0.05, 1.0));
  return v;
}

std::vector<double> random_doubles(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-0.5, 0.5);
  return v;
}

// Sizes straddling the 4-wide register tiles: below, at, off-by-one, and
// well past the tile width, plus primes that never divide evenly.
class BlockedKernelTest : public ::testing::TestWithParam<std::size_t> {};

INSTANTIATE_TEST_SUITE_P(Sizes, BlockedKernelTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 12, 17, 31));

TEST_P(BlockedKernelTest, MultiplyMatchesReferenceExactly) {
  const std::size_t n = GetParam();
  const linalg::Matrix a = random_matrix(n, n + 3, 100 + n);
  const linalg::Matrix b = random_matrix(n + 3, n + 1, 200 + n);
  linalg::Matrix ref;
  linalg::Matrix fast;
  {
    const linalg::ScopedKernelPath path(true);
    ref = a.multiply(b);
  }
  {
    const linalg::ScopedKernelPath path(false);
    fast = a.multiply(b);
  }
  ASSERT_EQ(ref.rows(), fast.rows());
  ASSERT_EQ(ref.cols(), fast.cols());
  for (std::size_t i = 0; i < ref.rows(); ++i) {
    for (std::size_t j = 0; j < ref.cols(); ++j) {
      EXPECT_EQ(ref(i, j), fast(i, j)) << "at (" << i << ", " << j << ")";
    }
  }
}

TEST_P(BlockedKernelTest, GramMatchesReferenceExactly) {
  const std::size_t n = GetParam();
  const linalg::Matrix a = random_matrix(n + 2, n, 300 + n);
  linalg::Matrix ref;
  linalg::Matrix fast;
  {
    const linalg::ScopedKernelPath path(true);
    ref = a.gram();
  }
  {
    const linalg::ScopedKernelPath path(false);
    fast = a.gram();
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_EQ(ref(i, j), fast(i, j)) << "at (" << i << ", " << j << ")";
    }
  }
}

TEST_P(BlockedKernelTest, DotStripMatchesPerPixelDot) {
  const std::size_t m = GetParam();
  const std::size_t bands = 37;
  const std::size_t t = 5;
  const linalg::Matrix u = random_matrix(t, bands, 400 + m);
  const std::vector<float> x = random_floats(m * bands, 500 + m);
  std::vector<double> out(m * t);
  linalg::dot_strip(u, x.data(), m, out);
  for (std::size_t p = 0; p < m; ++p) {
    const std::span<const float> px{x.data() + p * bands, bands};
    for (std::size_t i = 0; i < t; ++i) {
      EXPECT_EQ(out[p * t + i], (linalg::dot<double, float>(u.row(i), px)))
          << "pixel " << p << " row " << i;
    }
  }
}

TEST_P(BlockedKernelTest, DotStripDoubleMatchesPerPixelDot) {
  const std::size_t m = GetParam();
  const std::size_t bands = 19;
  const std::size_t t = 3;
  const linalg::Matrix u = random_matrix(t, bands, 600 + m);
  const std::vector<double> x = random_doubles(m * bands, 700 + m);
  std::vector<double> out(m * t);
  linalg::dot_strip(u, x.data(), m, out);
  for (std::size_t p = 0; p < m; ++p) {
    const std::span<const double> px{x.data() + p * bands, bands};
    for (std::size_t i = 0; i < t; ++i) {
      EXPECT_EQ(out[p * t + i], (linalg::dot<double, double>(u.row(i), px)));
    }
  }
}

TEST_P(BlockedKernelTest, NormSqStripMatchesPerPixelNormSq) {
  const std::size_t m = GetParam();
  const std::size_t bands = 23;
  const std::vector<float> x = random_floats(m * bands, 800 + m);
  std::vector<double> out(m);
  linalg::norm_sq_strip(x.data(), m, bands, out);
  for (std::size_t p = 0; p < m; ++p) {
    const std::span<const float> px{x.data() + p * bands, bands};
    EXPECT_EQ(out[p], linalg::norm_sq(px));
  }
}

TEST_P(BlockedKernelTest, SyrkMatchesRankOneLoopAcrossChainedStrips) {
  // Two consecutive strip updates must extend the per-element addition
  // chains exactly like the per-pixel rank-1 reference.
  const std::size_t n = GetParam();
  const std::size_t m1 = 6;
  const std::size_t m2 = 5;
  const std::size_t tri_n = n * (n + 1) / 2;
  const std::vector<double> x1 = random_doubles(m1 * n, 900 + n);
  const std::vector<double> x2 = random_doubles(m2 * n, 950 + n);

  std::vector<double> ref(tri_n, 0.0);
  for (const auto* strip : {&x1, &x2}) {
    const std::size_t m = strip == &x1 ? m1 : m2;
    for (std::size_t p = 0; p < m; ++p) {
      const double* row = strip->data() + p * n;
      std::size_t k = 0;
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i; j < n; ++j) {
          ref[k++] += row[i] * row[j];
        }
      }
    }
  }

  std::vector<double> fast(tri_n, 0.0);
  linalg::syrk_tri_update(x1.data(), m1, n, fast.data());
  linalg::syrk_tri_update(x2.data(), m2, n, fast.data());
  for (std::size_t k = 0; k < tri_n; ++k) {
    EXPECT_EQ(ref[k], fast[k]) << "triangle element " << k;
  }
}

TEST_P(BlockedKernelTest, OspArgmaxSweepMatchesReference) {
  const std::size_t rows = GetParam();
  const std::size_t cols = 9;
  const std::size_t bands = 21;
  const std::size_t t = 4;
  hsi::HsiCube cube(rows, cols, bands,
                    random_floats(rows * cols * bands, 1000 + rows));
  const auto targets = std::make_shared<const linalg::Matrix>(
      random_matrix(t, bands, 1100 + rows));
  const linalg::Cholesky gram(core::detail::ridged_row_gram(*targets));
  core::detail::ProjectionCache cache(cube, 0, rows);
  linalg::ScratchArena arena;

  core::detail::Candidate ref;
  core::detail::Candidate fast;
  {
    const linalg::ScopedKernelPath path(true);
    ref = core::detail::osp_argmax_sweep(cache, targets, gram, 0, rows, arena);
  }
  {
    const linalg::ScopedKernelPath path(false);
    fast =
        core::detail::osp_argmax_sweep(cache, targets, gram, 0, rows, arena);
  }
  EXPECT_EQ(ref.row, fast.row);
  EXPECT_EQ(ref.col, fast.col);
  EXPECT_EQ(ref.score, fast.score);
}

TEST(ScratchArenaTest, SpansStayValidAndStableAcrossTakes) {
  linalg::ScratchArena arena;
  const auto a = arena.take(100);
  const auto b = arena.take(200);
  a[0] = 1.0;
  a[99] = 2.0;
  b[0] = 3.0;
  b[199] = 4.0;
  // A chunk-spilling allocation must not move earlier spans.
  const auto c = arena.take(1 << 16);
  c[0] = 5.0;
  EXPECT_EQ(a[0], 1.0);
  EXPECT_EQ(a[99], 2.0);
  EXPECT_EQ(b[0], 3.0);
  EXPECT_EQ(b[199], 4.0);
}

TEST(ScratchArenaTest, ResetReusesMemory) {
  linalg::ScratchArena arena;
  const auto a = arena.take(64);
  const double* first = a.data();
  arena.reset();
  const auto b = arena.take(64);
  EXPECT_EQ(first, b.data());
}

TEST(KernelPathTest, ScopedToggleRestoresPreviousSetting) {
  const bool before = linalg::use_reference_kernels();
  {
    const linalg::ScopedKernelPath path(!before);
    EXPECT_EQ(linalg::use_reference_kernels(), !before);
    {
      const linalg::ScopedKernelPath inner(before);
      EXPECT_EQ(linalg::use_reference_kernels(), before);
    }
    EXPECT_EQ(linalg::use_reference_kernels(), !before);
  }
  EXPECT_EQ(linalg::use_reference_kernels(), before);
}

TEST(SolveIntoTest, MatchesAllocatingSolveExactly) {
  const linalg::Matrix a = random_matrix(6, 6, 1200);
  linalg::Matrix spd;
  {
    const linalg::ScopedKernelPath path(true);
    spd = a.gram();
  }
  for (std::size_t i = 0; i < 6; ++i) spd(i, i) += 6.0;
  const linalg::Cholesky chol(spd);
  const std::vector<double> b = random_doubles(6, 1300);
  const std::vector<double> x = chol.solve(b);
  std::vector<double> y(6);
  chol.solve_into(b, y);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(x[i], y[i]);
  }
}

}  // namespace
}  // namespace hprs
