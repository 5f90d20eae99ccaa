// Per-block AMEE morphological engine (the compute core of Hetero-MORPH).
//
// Extracted from the SPMD driver so the windowed kernel can be property-
// tested and benchmarked on its own.  The engine owns a standalone block of
// image rows and runs the paper's iterative erosion/dilation/eccentricity
// passes over it; partitioning, halo exchange, candidate selection, and all
// virtual-time accounting stay with the caller (the flop charge of a pass
// is purely geometric, so the driver computes it without the engine).
//
// Two implementations back iterate():
//  - the scalar reference path evaluates SAD(center, neighbor) for every
//    (pixel, window element) pair from scratch, exactly as the paper's
//    pseudo-code reads;
//  - the fast path (default; see linalg/kernels.hpp for the toggle) caches
//    per-pixel norms once per iteration and materializes one SAD plane per
//    distinct window offset, exploiting SAD's symmetry so each (pixel,
//    neighbor) pair is evaluated once instead of ~2(2r+1)^2 times across
//    the D and MEI/dilation passes.  The cached values are produced by the
//    same arithmetic as hsi::sad and summed in the same window order, so
//    the D planes, MEI scores, and dilated images are bit-identical.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "hsi/cube.hpp"

namespace hprs::core {

class MorphBlockEngine {
 public:
  /// Takes ownership of the block image (halo rows included).
  MorphBlockEngine(hsi::HsiCube block, std::size_t kernel_radius);

  /// One AMEE iteration: the D (cumulative SAD) pass followed by the
  /// MEI/dilation pass.  `last` skips the dilation, as the final working
  /// image is never read.
  void iterate(bool last);

  /// Working image (dilated in place across iterations).  Mutable access
  /// exists for the driver's halo splicing.
  [[nodiscard]] const hsi::HsiCube& image() const { return f_; }
  [[nodiscard]] hsi::HsiCube& image() { return f_; }

  /// Running per-pixel maximum eccentricity index, row-major over the block.
  [[nodiscard]] const std::vector<double>& mei() const { return mei_; }

  /// The last iteration's D plane (cumulative SAD per pixel), row-major.
  [[nodiscard]] const std::vector<double>& d() const { return d_; }

 private:
  [[nodiscard]] std::size_t rows() const { return f_.rows(); }
  [[nodiscard]] std::size_t cols() const { return f_.cols(); }
  [[nodiscard]] std::pair<std::size_t, std::size_t> row_window(
      std::size_t x) const;
  [[nodiscard]] std::pair<std::size_t, std::size_t> col_window(
      std::size_t y) const;

  void d_pass_reference(std::vector<double>& d) const;
  void d_pass_cached(std::vector<double>& d);
  void mei_pass(const std::vector<double>& d, bool last, bool cached);
  void refresh_sad_cache();

  std::size_t radius_;
  hsi::HsiCube f_;
  std::vector<double> mei_;

  // Fast-path scratch, allocated lazily and reused across iterations.
  std::vector<double> d_;
  std::vector<double> norms_;     // ||pixel|| per block pixel
  std::vector<double> norms_sq_;  // pixel . pixel per block pixel
  std::vector<double> self_sad_;  // SAD(pixel, pixel) -- acos rounding noise
  std::vector<std::pair<std::size_t, std::ptrdiff_t>> offsets_;
  std::vector<std::vector<double>> planes_;  // one SAD plane per offset
  std::vector<std::ptrdiff_t> plane_of_;     // (di, dj) -> plane index
  hsi::HsiCube next_;                        // dilation target, reused
};

}  // namespace hprs::core
