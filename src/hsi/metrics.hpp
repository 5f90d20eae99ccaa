// Spectral similarity metrics.
//
// SAD (the paper calls it both SAD and SAM) is the workhorse: the angle
// between two spectra, invariant to per-pixel illumination scaling.  SID is
// provided as a stricter information-theoretic alternative used by the
// extension benches.
#pragma once

#include <algorithm>
#include <cmath>
#include <span>

#include "linalg/flops.hpp"
#include "linalg/vec.hpp"

namespace hprs::hsi {

/// The spectral angle of two spectra from their dot product and norms.
/// Degenerate (zero) spectra map to angle 0 against themselves and pi/2
/// against anything else, which keeps downstream argmin/argmax total.
/// Kernels that form several pairs' dot products at once (MORPH's SAD
/// planes and labeling) finish each pair here.
[[nodiscard]] inline double sad_from_dot(double dot, double na, double nb) {
  if (na == 0.0 || nb == 0.0) {
    return (na == 0.0 && nb == 0.0) ? 0.0 : std::acos(0.0);
  }
  return std::acos(std::clamp(dot / (na * nb), -1.0, 1.0));
}

/// sad() with the operand norms precomputed by the caller.  The hot sweeps
/// (MORPH's windowed eccentricity passes, nearest-representative labeling)
/// evaluate SAD against the same spectra many times; hoisting the two norm
/// reductions out of the pair loop removes two of the three dot products per
/// evaluation.  `na`/`nb` must equal linalg::norm of the operands, which
/// makes the result bit-identical to sad().
template <typename T, typename U>
[[nodiscard]] double sad_with_norms(std::span<const T> a, std::span<const U> b,
                                    double na, double nb) {
  return sad_from_dot(linalg::dot(a, b), na, nb);
}

/// Spectral angle distance (radians, in [0, pi]).  Equation (1) of the
/// paper; see sad_from_dot for degenerate spectra.
template <typename T, typename U>
[[nodiscard]] double sad(std::span<const T> a, std::span<const U> b) {
  return sad_with_norms(a, b, linalg::norm(a), linalg::norm(b));
}

/// Squared Euclidean distance between spectra.
template <typename T>
[[nodiscard]] double euclidean_sq(std::span<const T> a, std::span<const T> b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    acc += d * d;
  }
  return acc;
}

/// Spectral information divergence (symmetrised KL divergence between the
/// band-probability profiles).  Requires non-negative spectra; zero bands
/// are floored to keep the logs finite.
template <typename T>
[[nodiscard]] double sid(std::span<const T> a, std::span<const T> b) {
  constexpr double kFloor = 1e-12;
  double sum_a = 0.0;
  double sum_b = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    sum_a += std::max(static_cast<double>(a[i]), kFloor);
    sum_b += std::max(static_cast<double>(b[i]), kFloor);
  }
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double p = std::max(static_cast<double>(a[i]), kFloor) / sum_a;
    const double q = std::max(static_cast<double>(b[i]), kFloor) / sum_b;
    d += (p - q) * std::log(p / q);
  }
  return d;
}

namespace flops {
/// Flop count of one sad() evaluation on n-band spectra.
constexpr linalg::flops::Count sad(linalg::flops::Count n) {
  return linalg::flops::sad(n);
}
/// Flop count of one sid() evaluation (two logs per band ~ 6n).
constexpr linalg::flops::Count sid(linalg::flops::Count n) { return 6 * n; }
}  // namespace flops

}  // namespace hprs::hsi
