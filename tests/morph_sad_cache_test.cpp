// Property tests for MORPH's fast paths.  The SAD-cache engine: two
// engines run the same block, one on the scalar reference pass and one on
// the cached-plane pass, and every iteration's D plane, working image and
// MEI scores must match bit for bit.  Radii 1-3 and block shapes smaller than,
// equal to, and larger than the structuring element exercise all
// window-clamping cases.  The strip labeling: its labels must equal the
// per-pair reference loop's.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "core/morph.hpp"
#include "core/morph_kernel.hpp"
#include "hsi/cube.hpp"
#include "linalg/kernels.hpp"

namespace hprs {
namespace {

hsi::HsiCube random_cube(std::size_t rows, std::size_t cols,
                         std::size_t bands, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<float> samples(rows * cols * bands);
  for (auto& v : samples) v = static_cast<float>(rng.uniform(0.05, 1.0));
  return hsi::HsiCube(rows, cols, bands, std::move(samples));
}

// (rows, cols, radius)
using Shape = std::tuple<std::size_t, std::size_t, std::size_t>;

class MorphSadCacheTest : public ::testing::TestWithParam<Shape> {};

INSTANTIATE_TEST_SUITE_P(
    Shapes, MorphSadCacheTest,
    ::testing::Values(Shape{1, 1, 1},    // degenerate single pixel
                      Shape{2, 7, 1},    // fewer rows than the window
                      Shape{7, 2, 2},    // fewer cols than the window
                      Shape{5, 5, 2},    // block == window
                      Shape{9, 8, 1},    // generic interior + borders
                      Shape{8, 9, 2},    //
                      Shape{11, 7, 3},   // radius 3, odd sizes
                      Shape{7, 11, 3}));

TEST_P(MorphSadCacheTest, ImageAndMeiBitIdenticalAcrossIterations) {
  const auto [rows, cols, radius] = GetParam();
  const std::size_t bands = 17;
  const std::size_t iterations = 3;
  const hsi::HsiCube block = random_cube(rows, cols, bands, 42 + rows * cols);

  core::MorphBlockEngine ref_engine(block, radius);
  core::MorphBlockEngine fast_engine(block, radius);

  for (std::size_t it = 0; it < iterations; ++it) {
    const bool last = it + 1 == iterations;
    {
      const linalg::ScopedKernelPath path(true);
      ref_engine.iterate(last);
    }
    {
      const linalg::ScopedKernelPath path(false);
      fast_engine.iterate(last);
    }

    ASSERT_EQ(ref_engine.d().size(), fast_engine.d().size());
    for (std::size_t p = 0; p < ref_engine.d().size(); ++p) {
      ASSERT_EQ(ref_engine.d()[p], fast_engine.d()[p])
          << "D at pixel " << p << " in iteration " << it;
    }

    const auto ref_img = ref_engine.image().samples();
    const auto fast_img = fast_engine.image().samples();
    ASSERT_EQ(ref_img.size(), fast_img.size());
    for (std::size_t s = 0; s < ref_img.size(); ++s) {
      ASSERT_EQ(ref_img[s], fast_img[s])
          << "image sample " << s << " after iteration " << it;
    }

    const auto& ref_mei = ref_engine.mei();
    const auto& fast_mei = fast_engine.mei();
    ASSERT_EQ(ref_mei.size(), fast_mei.size());
    for (std::size_t p = 0; p < ref_mei.size(); ++p) {
      ASSERT_EQ(ref_mei[p], fast_mei[p])
          << "MEI at pixel " << p << " after iteration " << it;
    }
  }
}

TEST_P(MorphSadCacheTest, MeiIsMonotoneNonDecreasing) {
  // The engine keeps a running max; iterating more must never lower it.
  const auto [rows, cols, radius] = GetParam();
  const hsi::HsiCube block = random_cube(rows, cols, 9, 7 + rows + cols);
  core::MorphBlockEngine engine(block, radius);
  engine.iterate(false);
  const std::vector<double> first = engine.mei();
  engine.iterate(true);
  const auto& second = engine.mei();
  for (std::size_t p = 0; p < first.size(); ++p) {
    EXPECT_GE(second[p], first[p]) << "pixel " << p;
  }
}

TEST(MorphSadCacheTest, ZeroPixelHandledLikeReference) {
  // Degenerate all-zero spectra hit sad()'s special cases; the cached
  // self-SAD and plane values must reproduce them exactly.
  hsi::HsiCube block(3, 3, 5);
  // Leave pixel (1, 1) zero; fill the rest.
  Xoshiro256 rng(11);
  for (std::size_t p = 0; p < 9; ++p) {
    if (p == 4) continue;
    for (auto& v : block.pixel(p)) {
      v = static_cast<float>(rng.uniform(0.1, 1.0));
    }
  }
  core::MorphBlockEngine ref_engine(block, 1);
  core::MorphBlockEngine fast_engine(block, 1);
  {
    const linalg::ScopedKernelPath path(true);
    ref_engine.iterate(false);
  }
  {
    const linalg::ScopedKernelPath path(false);
    fast_engine.iterate(false);
  }
  const auto& ref_mei = ref_engine.mei();
  const auto& fast_mei = fast_engine.mei();
  for (std::size_t p = 0; p < ref_mei.size(); ++p) {
    EXPECT_EQ(ref_mei[p], fast_mei[p]) << "pixel " << p;
  }
  const auto ref_img = ref_engine.image().samples();
  const auto fast_img = fast_engine.image().samples();
  for (std::size_t s = 0; s < ref_img.size(); ++s) {
    EXPECT_EQ(ref_img[s], fast_img[s]) << "sample " << s;
  }
}

TEST(MorphSadCacheTest, ZeroAndRepeatedPixelsInFourPairPasses) {
  // Rows wide enough for the plane fill's four-pair passes, with zero
  // pixels and repeated spectra inside them and in the remainders.
  hsi::HsiCube block = random_cube(6, 13, 23, 5);
  for (const std::size_t p : {2U, 17U, 18U, 40U, 77U}) {
    std::fill(block.pixel(p).begin(), block.pixel(p).end(), 0.0F);
  }
  for (const std::size_t p : {5U, 6U, 31U, 64U}) {
    std::copy(block.pixel(3).begin(), block.pixel(3).end(),
              block.pixel(p).begin());
  }
  core::MorphBlockEngine ref_engine(block, 2);
  core::MorphBlockEngine fast_engine(block, 2);
  for (std::size_t it = 0; it < 2; ++it) {
    {
      const linalg::ScopedKernelPath path(true);
      ref_engine.iterate(it == 1);
    }
    {
      const linalg::ScopedKernelPath path(false);
      fast_engine.iterate(it == 1);
    }
    const auto& ref_mei = ref_engine.mei();
    const auto& fast_mei = fast_engine.mei();
    for (std::size_t p = 0; p < ref_mei.size(); ++p) {
      ASSERT_EQ(ref_engine.d()[p], fast_engine.d()[p]) << "D " << p;
      ASSERT_EQ(ref_mei[p], fast_mei[p]) << "pixel " << p << " it " << it;
    }
    const auto ref_img = ref_engine.image().samples();
    const auto fast_img = fast_engine.image().samples();
    for (std::size_t s = 0; s < ref_img.size(); ++s) {
      ASSERT_EQ(ref_img[s], fast_img[s]) << "sample " << s << " it " << it;
    }
  }
}

// --- Strip labeling against the per-pair reference loop -----------------

// (rows, cols, row_begin, row_end, reps): 1-row chunks, pixel counts that
// are not multiples of 4 or 64, exactly one strip, and chunks starting
// mid-cube, against 1, 2 and 33 representatives.
using LabelCase = std::tuple<std::size_t, std::size_t, std::size_t,
                             std::size_t, std::size_t>;

class MorphStripLabelTest : public ::testing::TestWithParam<LabelCase> {};

INSTANTIATE_TEST_SUITE_P(
    Chunks, MorphStripLabelTest,
    ::testing::Values(LabelCase{1, 1, 0, 1, 1}, LabelCase{3, 67, 1, 2, 2},
                      LabelCase{5, 7, 0, 5, 33}, LabelCase{6, 13, 2, 5, 2},
                      LabelCase{4, 16, 0, 4, 1}, LabelCase{9, 29, 3, 9, 33},
                      LabelCase{2, 70, 0, 2, 33}));

TEST_P(MorphStripLabelTest, LabelsMatchTheReferenceLoop) {
  const auto [rows, cols, row_begin, row_end, n_reps] = GetParam();
  const std::size_t bands = 21;
  hsi::HsiCube cube = random_cube(rows, cols, bands, 3 + rows * cols);
  // Representatives are cube pixels; from two reps on the second repeats
  // the first (tied distances: the first must win), and from three on the
  // last is the zero spectrum, which is also planted in the cube
  // (sad_from_dot's zero-norm branches on both sides).
  const std::size_t n = cube.pixel_count();
  std::vector<std::vector<float>> spectra;
  for (std::size_t u = 0; u < n_reps; ++u) {
    const auto px = cube.pixel((u * 7) % n);
    spectra.emplace_back(px.begin(), px.end());
  }
  if (n_reps >= 2) spectra[1] = spectra[0];
  if (n_reps >= 3) spectra.back().assign(bands, 0.0F);
  const std::size_t zero_px =
      row_begin * cols + (row_end - row_begin) * cols / 2;
  std::fill(cube.pixel(zero_px).begin(), cube.pixel(zero_px).end(), 0.0F);
  const std::vector<std::span<const float>> reps(spectra.begin(),
                                                 spectra.end());

  std::vector<std::uint16_t> ref;
  std::vector<std::uint16_t> fast;
  {
    const linalg::ScopedKernelPath path(true);
    ref = core::detail::sad_labels(cube, row_begin, row_end, reps);
  }
  {
    const linalg::ScopedKernelPath path(false);
    fast = core::detail::sad_labels(cube, row_begin, row_end, reps);
  }
  ASSERT_EQ(ref.size(), (row_end - row_begin) * cols);
  ASSERT_EQ(fast.size(), ref.size());
  for (std::size_t p = 0; p < ref.size(); ++p) {
    ASSERT_EQ(ref[p], fast[p]) << "pixel " << p;
    if (n_reps >= 2) {
      EXPECT_NE(fast[p], 1U) << "a tie went to the repeated rep";
    }
  }
  if (n_reps >= 3) {
    EXPECT_EQ(fast[zero_px - row_begin * cols], n_reps - 1);
  }
}

}  // namespace
}  // namespace hprs
