// The projection cache ATDCA and UFCLS keep per chunk
// (core/spmd_common.hpp).  Every value the cached sweeps read -- pixel
// norms, U . x columns, and the OSP scores, FCLS errors and iteration
// counts computed from them -- must equal what the per-pixel reference
// loops compute, bit for bit, whatever the chunk's geometry, the number of
// rows of U, the order in which the rows arrive, or a U that does not
// extend the one the cache was built from.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "core/spmd_common.hpp"
#include "hsi/cube.hpp"
#include "linalg/fcls.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "linalg/solve.hpp"
#include "linalg/thread_pool.hpp"
#include "linalg/vec.hpp"

namespace hprs {
namespace {

using core::detail::ProjectionCache;
using core::detail::SharedTargets;

constexpr std::size_t kBands = 21;

/// A cube and the whole rows of it one chunk owns.
struct Geometry {
  const char* name;
  std::size_t rows, cols;
  std::size_t row_begin, row_end;
};

// A 1-pixel chunk; a 1-row chunk of 67 pixels (one full strip and a
// ragged 3-pixel one); 5 x 13 = 65 pixels, neither a multiple of 4 nor of
// 64; and rows 3-9 of a 12-row cube, so local and cube pixel indices
// differ.
const Geometry kGeometries[] = {
    {"OnePixel", 1, 1, 0, 1},
    {"OneRowOf67", 1, 67, 0, 1},
    {"RaggedStrips", 5, 13, 0, 5},
    {"MidCube", 12, 11, 3, 10},
};

hsi::HsiCube random_cube(const Geometry& g, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<float> samples(g.rows * g.cols * kBands);
  for (auto& v : samples) v = static_cast<float>(rng.uniform(0.05, 1.0));
  return hsi::HsiCube(g.rows, g.cols, kBands, std::move(samples));
}

linalg::Matrix random_targets(std::size_t t, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  linalg::Matrix u(t, kBands);
  for (auto& v : u.data()) v = rng.uniform(0.05, 1.0);
  return u;
}

SharedTargets share(linalg::Matrix u) {
  return std::make_shared<const linalg::Matrix>(std::move(u));
}

SharedTargets leading_rows(const linalg::Matrix& u, std::size_t t) {
  linalg::Matrix rows;
  for (std::size_t i = 0; i < t; ++i) rows.append_row(u.row(i));
  return share(std::move(rows));
}

/// Every cached value of the chunk equals the direct dot and norm.
void expect_cache_holds(const ProjectionCache& cache, const hsi::HsiCube& cube,
                        const Geometry& g, const linalg::Matrix& u) {
  ASSERT_EQ(cache.rows(), u.rows());
  const std::size_t t = u.rows();
  std::vector<double> b(t);
  std::vector<double> xx(1);
  std::size_t q = 0;
  for (std::size_t r = g.row_begin; r < g.row_end; ++r) {
    for (std::size_t c = 0; c < g.cols; ++c, ++q) {
      cache.gather(q, 1, b, xx);
      const auto px = cube.pixel(r, c);
      ASSERT_EQ(xx[0], linalg::norm_sq(px)) << "pixel " << r << "," << c;
      for (std::size_t i = 0; i < t; ++i) {
        ASSERT_EQ(b[i], (linalg::dot<double, float>(u.row(i), px)))
            << "pixel " << r << "," << c << " row " << i;
      }
    }
  }
}

class DetectorCacheTest
    : public ::testing::TestWithParam<std::tuple<Geometry, std::size_t>> {};

INSTANTIATE_TEST_SUITE_P(
    Chunks, DetectorCacheTest,
    ::testing::Combine(::testing::ValuesIn(kGeometries),
                       ::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{17})),
    [](const auto& param_info) {
      return std::string(std::get<0>(param_info.param).name) + "_" +
             std::to_string(std::get<1>(param_info.param)) + "rows";
    });

TEST_P(DetectorCacheTest, CachedColumnsGiveTheReferenceScoresAndErrors) {
  const auto& [g, t] = GetParam();
  const hsi::HsiCube cube = random_cube(g, 31 + t);
  const SharedTargets u = share(random_targets(t, 37 + t));
  ProjectionCache cache(cube, g.row_begin, g.row_end);
  cache.sync(u);
  expect_cache_holds(cache, cube, g, *u);

  const linalg::Cholesky gram(core::detail::ridged_row_gram(*u));
  const linalg::Unmixer unmixer(*u);
  std::vector<double> b(t);
  std::vector<double> xx(1);
  std::vector<double> z(t);
  std::size_t q = 0;
  for (std::size_t r = g.row_begin; r < g.row_end; ++r) {
    for (std::size_t c = 0; c < g.cols; ++c, ++q) {
      cache.gather(q, 1, b, xx);
      const auto px = cube.pixel(r, c);
      gram.solve_into(b, z);
      EXPECT_EQ((xx[0] - linalg::dot<double, double>(b, z)),
                core::detail::osp_score(*u, gram, px))
          << "pixel " << r << "," << c;
      const linalg::UnmixResult cached = unmixer.fcls_with_corr(b, xx[0]);
      const linalg::UnmixResult ref = unmixer.fcls(px);
      EXPECT_EQ(cached.error_sq, ref.error_sq) << "pixel " << r << "," << c;
      EXPECT_EQ(cached.iterations, ref.iterations)
          << "pixel " << r << "," << c;
      EXPECT_EQ(cached.abundances, ref.abundances)
          << "pixel " << r << "," << c;
    }
  }
}

TEST_P(DetectorCacheTest, CachedSweepsPickTheReferenceCandidates) {
  // Over the whole chunk and over a tile that starts one row into it, at
  // one and at three kernel threads.
  const auto& [g, t] = GetParam();
  const hsi::HsiCube cube = random_cube(g, 41 + t);
  const SharedTargets u = share(random_targets(t, 43 + t));
  const linalg::Cholesky gram(core::detail::ridged_row_gram(*u));
  const linalg::Unmixer unmixer(*u);
  const std::size_t tile_begin =
      g.row_end - g.row_begin > 1 ? g.row_begin + 1 : g.row_begin;
  for (const std::size_t threads : {1u, 3u}) {
    const linalg::ScopedKernelThreads scoped(threads);
    for (const std::size_t begin : {g.row_begin, tile_begin}) {
      const std::string label = std::to_string(threads) + " threads, rows " +
                                std::to_string(begin) + "-" +
                                std::to_string(g.row_end);
      linalg::ScratchArena arena;
      core::detail::Candidate osp[2];
      core::detail::SweepOut fcls[2];
      core::detail::SweepOut bright[2];
      for (const bool reference : {true, false}) {
        const linalg::ScopedKernelPath path(reference);
        ProjectionCache cache(cube, g.row_begin, g.row_end);
        bright[reference] =
            core::detail::brightest_sweep(cache, begin, g.row_end);
        osp[reference] = core::detail::osp_argmax_sweep(
            cache, u, gram, begin, g.row_end, arena);
        fcls[reference] = core::detail::fcls_error_sweep(
            cache, u, unmixer, begin, g.row_end, arena);
        EXPECT_EQ(cache.rows(), reference ? 0 : t) << label;
      }
      EXPECT_EQ(bright[0].best.row, bright[1].best.row) << label;
      EXPECT_EQ(bright[0].best.col, bright[1].best.col) << label;
      EXPECT_EQ(bright[0].best.score, bright[1].best.score) << label;
      EXPECT_EQ(bright[0].flops, bright[1].flops) << label;
      EXPECT_EQ(osp[0].row, osp[1].row) << label;
      EXPECT_EQ(osp[0].col, osp[1].col) << label;
      EXPECT_EQ(osp[0].score, osp[1].score) << label;
      EXPECT_EQ(fcls[0].best.row, fcls[1].best.row) << label;
      EXPECT_EQ(fcls[0].best.col, fcls[1].best.col) << label;
      EXPECT_EQ(fcls[0].best.score, fcls[1].best.score) << label;
      EXPECT_EQ(fcls[0].flops, fcls[1].flops) << label;
    }
  }
}

TEST(DetectorCacheTest, AMismatchedRowDropsItAndEveryLaterRow) {
  const Geometry& g = kGeometries[3];
  const hsi::HsiCube cube = random_cube(g, 51);
  const linalg::Matrix held = random_targets(3, 53);
  ProjectionCache cache(cube, g.row_begin, g.row_end);
  cache.sync(share(held));
  expect_cache_holds(cache, cube, g, held);

  // Leading row one ulp off: nothing the cache holds may survive.
  linalg::Matrix lead = held;
  lead(0, 5) = std::nextafter(lead(0, 5), 2.0);
  cache.sync(share(lead));
  expect_cache_holds(cache, cube, g, lead);

  // A middle row off: the rows before it stay, it and the rest are redone.
  linalg::Matrix middle = lead;
  middle(1, 0) = -middle(1, 0);
  middle.append_row(random_targets(1, 57).row(0));
  cache.sync(share(middle));
  expect_cache_holds(cache, cube, g, middle);

  // Fewer rows than held: the cache shrinks to them.
  cache.sync(leading_rows(middle, 2));
  expect_cache_holds(cache, cube, g, *leading_rows(middle, 2));
}

TEST(DetectorCacheTest, ExtendingSeveralRowsAtOnceEqualsOneAtATime) {
  // An adopted or resumed chunk starts empty and meets a U of many rows;
  // its cache must hold exactly what the round-by-round cache holds.
  const Geometry& g = kGeometries[3];
  const hsi::HsiCube cube = random_cube(g, 61);
  const linalg::Matrix u = random_targets(17, 67);
  ProjectionCache stepwise(cube, g.row_begin, g.row_end);
  for (std::size_t t = 1; t <= u.rows(); ++t) {
    stepwise.sync(leading_rows(u, t));
  }
  ProjectionCache at_once(cube, g.row_begin, g.row_end);
  at_once.sync(leading_rows(u, u.rows()));
  expect_cache_holds(at_once, cube, g, u);

  const std::size_t pixels = (g.row_end - g.row_begin) * g.cols;
  std::vector<double> b_step(pixels * u.rows());
  std::vector<double> b_once(pixels * u.rows());
  std::vector<double> xx_step(pixels);
  std::vector<double> xx_once(pixels);
  stepwise.gather(0, pixels, b_step, xx_step);
  at_once.gather(0, pixels, b_once, xx_once);
  EXPECT_EQ(0, std::memcmp(b_step.data(), b_once.data(),
                           b_step.size() * sizeof(double)));
  EXPECT_EQ(0, std::memcmp(xx_step.data(), xx_once.data(),
                           xx_step.size() * sizeof(double)));
}

}  // namespace
}  // namespace hprs
