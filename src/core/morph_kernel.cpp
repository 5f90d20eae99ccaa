#include "core/morph_kernel.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "hsi/metrics.hpp"
#include "linalg/kernels.hpp"
#include "linalg/thread_pool.hpp"
#include "linalg/vec.hpp"

namespace hprs::core {

MorphBlockEngine::MorphBlockEngine(hsi::HsiCube block,
                                   std::size_t kernel_radius)
    : radius_(kernel_radius),
      f_(std::move(block)),
      mei_(f_.rows() * f_.cols(), 0.0) {}

std::pair<std::size_t, std::size_t> MorphBlockEngine::row_window(
    std::size_t x) const {
  return {x >= radius_ ? x - radius_ : 0, std::min(x + radius_ + 1, rows())};
}

std::pair<std::size_t, std::size_t> MorphBlockEngine::col_window(
    std::size_t y) const {
  return {y >= radius_ ? y - radius_ : 0, std::min(y + radius_ + 1, cols())};
}

void MorphBlockEngine::iterate(bool last) {
  const bool cached = !linalg::use_reference_kernels();
  d_.assign(rows() * cols(), 0.0);
  if (cached) {
    d_pass_cached(d_);
  } else {
    d_pass_reference(d_);
  }
  mei_pass(d_, last, cached);
}

// --- Reference path: D(x, y) = sum over the structuring element of
//     SAD(F(x, y), F(neighbor)), windows clamped to the block.
void MorphBlockEngine::d_pass_reference(std::vector<double>& d) const {
  const std::size_t n_cols = cols();
  for (std::size_t x = 0; x < rows(); ++x) {
    const auto [i_lo, i_hi] = row_window(x);
    for (std::size_t y = 0; y < n_cols; ++y) {
      const auto [j_lo, j_hi] = col_window(y);
      const auto center = f_.pixel(x, y);
      double acc = 0.0;
      for (std::size_t i = i_lo; i < i_hi; ++i) {
        for (std::size_t j = j_lo; j < j_hi; ++j) {
          acc += hsi::sad<float, float>(center, f_.pixel(i, j));
        }
      }
      d[x * n_cols + y] = acc;
    }
  }
}

void MorphBlockEngine::refresh_sad_cache() {
  const std::size_t n_rows = rows();
  const std::size_t n_cols = cols();
  const std::size_t count = n_rows * n_cols;
  const auto r = static_cast<std::ptrdiff_t>(radius_);

  norms_.resize(count);
  norms_sq_.resize(count);
  self_sad_.resize(count);
  // Per-pixel norms are independent; workers own contiguous pixel blocks.
  linalg::parallel_region(count, [&](std::size_t worker,
                                     std::size_t workers) {
    const std::size_t per = (count + workers - 1) / workers;
    const std::size_t p0 = worker * per;
    const std::size_t p1 = std::min(count, p0 + per);
    for (std::size_t p = p0; p < p1; ++p) {
      const double sq = linalg::norm_sq<float>(f_.pixel(p));
      const double n = std::sqrt(sq);
      norms_sq_[p] = sq;
      norms_[p] = n;
      // SAD(p, p) exactly as sad() computes it: the quotient sq / n^2 is
      // not exactly 1 in general, so the self term is acos rounding noise
      // rather than a literal zero.
      self_sad_[p] =
          n == 0.0 ? 0.0
                   : std::acos(std::clamp(sq / (n * n), -1.0, 1.0));
    }
  });

  if (offsets_.empty()) {
    // Lexicographically positive half of the structuring element; the
    // negative half is reached through SAD's symmetry.
    plane_of_.assign((radius_ + 1) * (2 * radius_ + 1),
                     std::ptrdiff_t{-1});
    for (std::ptrdiff_t di = 0; di <= r; ++di) {
      for (std::ptrdiff_t dj = -r; dj <= r; ++dj) {
        if (di == 0 && dj <= 0) continue;
        plane_of_[static_cast<std::size_t>(di) * (2 * radius_ + 1) +
                  static_cast<std::size_t>(dj + r)] =
            static_cast<std::ptrdiff_t>(offsets_.size());
        offsets_.emplace_back(static_cast<std::size_t>(di), dj);
      }
    }
    planes_.resize(offsets_.size());
  }

  // One worker per SAD plane (stride-owned): planes are disjoint output
  // arrays, each filled in the same serial order regardless of thread
  // count.
  const std::size_t bands = f_.bands();
  const float* samples = f_.samples().data();
  linalg::parallel_region(
      offsets_.size(), [&](std::size_t worker, std::size_t workers) {
  for (std::size_t k = worker; k < offsets_.size(); k += workers) {
    const auto [di, dj] = offsets_[k];
    auto& plane = planes_[k];
    plane.resize(count);
    const std::size_t x_hi = n_rows > di ? n_rows - di : 0;
    const std::size_t y_lo = dj < 0 ? static_cast<std::size_t>(-dj) : 0;
    const std::size_t y_hi =
        dj > 0 && static_cast<std::size_t>(dj) >= n_cols
            ? 0
            : (dj > 0 ? n_cols - static_cast<std::size_t>(dj) : n_cols);
    // Pair p = (x, y) with q = p + shift = (x + di, y + dj); the unsigned
    // sum wraps to the right index when dj < 0.  Neighbouring y give
    // neighbouring pixels on both sides, so four pairs run as four
    // independent dot chains per pass over the bands, each in ascending
    // band order as linalg::dot adds them; sad_from_dot then finishes
    // each pair exactly as sad_with_norms does.
    const std::size_t shift = di * n_cols + static_cast<std::size_t>(dj);
    for (std::size_t x = 0; x < x_hi; ++x) {
      std::size_t y = y_lo;
      for (; y + 4 <= y_hi; y += 4) {
        const std::size_t p = x * n_cols + y;
        const float* a = samples + p * bands;
        const float* b = samples + (p + shift) * bands;
        double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
        for (std::size_t i = 0; i < bands; ++i) {
          s0 += static_cast<double>(a[i]) * static_cast<double>(b[i]);
          s1 += static_cast<double>(a[bands + i]) *
                static_cast<double>(b[bands + i]);
          s2 += static_cast<double>(a[2 * bands + i]) *
                static_cast<double>(b[2 * bands + i]);
          s3 += static_cast<double>(a[3 * bands + i]) *
                static_cast<double>(b[3 * bands + i]);
        }
        const double dots[4] = {s0, s1, s2, s3};
        for (std::size_t j = 0; j < 4; ++j) {
          plane[p + j] = hsi::sad_from_dot(dots[j], norms_[p + j],
                                           norms_[p + j + shift]);
        }
      }
      for (; y < y_hi; ++y) {
        const std::size_t p = x * n_cols + y;
        plane[p] = hsi::sad_with_norms<float, float>(
            f_.pixel(p), f_.pixel(p + shift), norms_[p], norms_[p + shift]);
      }
    }
  }
      });
}

// --- Fast path: one SAD evaluation per distinct (pixel, neighbor) pair,
//     then each D entry sums cached values in the reference window order.
void MorphBlockEngine::d_pass_cached(std::vector<double>& d) {
  refresh_sad_cache();
  const std::size_t n_cols = cols();
  const std::size_t n_rows = rows();
  const auto w = 2 * radius_ + 1;
  // Row ownership: each D row sums read-only cached planes into its own
  // slice of d, so contiguous row blocks per worker are bit-identical to
  // the serial sweep.  (The MEI pass stays serial: its mei_[p_max] updates
  // collide across windows.)
  linalg::parallel_region(n_rows, [&](std::size_t worker,
                                      std::size_t workers) {
    const std::size_t per = (n_rows + workers - 1) / workers;
    const std::size_t x0 = worker * per;
    const std::size_t x1 = std::min(n_rows, x0 + per);
  for (std::size_t x = x0; x < x1; ++x) {
    const auto [i_lo, i_hi] = row_window(x);
    for (std::size_t y = 0; y < n_cols; ++y) {
      const auto [j_lo, j_hi] = col_window(y);
      double acc = 0.0;
      for (std::size_t i = i_lo; i < i_hi; ++i) {
        for (std::size_t j = j_lo; j < j_hi; ++j) {
          double v;
          if (i == x && j == y) {
            v = self_sad_[x * n_cols + y];
          } else if (i > x || (i == x && j > y)) {
            const std::ptrdiff_t k =
                plane_of_[(i - x) * w +
                          static_cast<std::size_t>(
                              static_cast<std::ptrdiff_t>(j) -
                              static_cast<std::ptrdiff_t>(y) +
                              static_cast<std::ptrdiff_t>(radius_))];
            v = planes_[static_cast<std::size_t>(k)][x * n_cols + y];
          } else {
            const std::ptrdiff_t k =
                plane_of_[(x - i) * w +
                          static_cast<std::size_t>(
                              static_cast<std::ptrdiff_t>(y) -
                              static_cast<std::ptrdiff_t>(j) +
                              static_cast<std::ptrdiff_t>(radius_))];
            v = planes_[static_cast<std::size_t>(k)][i * n_cols + j];
          }
          acc += v;
        }
      }
      d[x * n_cols + y] = acc;
    }
  }
  });
}

// --- MEI + dilation pass: erosion picks the window's argmin of D, the
//     dilation its argmax; MEI accumulates the SAD between the two picks.
void MorphBlockEngine::mei_pass(const std::vector<double>& d, bool last,
                                bool cached) {
  const std::size_t n_cols = cols();
  if (!last) {
    if (next_.empty()) {
      next_ = f_;
    }
  }
  for (std::size_t x = 0; x < rows(); ++x) {
    const auto [i_lo, i_hi] = row_window(x);
    for (std::size_t y = 0; y < n_cols; ++y) {
      const auto [j_lo, j_hi] = col_window(y);
      double d_min = std::numeric_limits<double>::infinity();
      double d_max = -d_min;
      std::size_t min_x = x, min_y = y, max_x = x, max_y = y;
      for (std::size_t i = i_lo; i < i_hi; ++i) {
        for (std::size_t j = j_lo; j < j_hi; ++j) {
          const double v = d[i * n_cols + j];
          if (v < d_min) {
            d_min = v;
            min_x = i;
            min_y = j;
          }
          if (v > d_max) {
            d_max = v;
            max_x = i;
            max_y = j;
          }
        }
      }

      const std::size_t p_min = min_x * n_cols + min_y;
      const std::size_t p_max = max_x * n_cols + max_y;
      const double score =
          cached ? hsi::sad_with_norms<float, float>(
                       f_.pixel(p_min), f_.pixel(p_max), norms_[p_min],
                       norms_[p_max])
                 : hsi::sad<float, float>(f_.pixel(p_min), f_.pixel(p_max));
      // AMEE convention: the eccentricity score is associated with the
      // spectrally purest pixel of the window (the dilation pick), which is
      // what makes high-MEI pixels good class representatives.
      auto& best = mei_[p_max];
      best = std::max(best, score);

      if (!last) {
        const auto src = f_.pixel(p_max);
        std::copy(src.begin(), src.end(), next_.pixel(x, y).begin());
      }
    }
  }

  if (!last) {
    std::swap(f_, next_);
  }
}

}  // namespace hprs::core
