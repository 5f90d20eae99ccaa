// Morphological spatial/spectral classification (paper Alg. 5).
//
// Each worker receives its partition *with overlap borders* (redundant rows
// replacing halo communication -- the paper's design choice for reducing
// inter-processor traffic) and runs I_max iterations of multichannel
// morphology: for every pixel, the cumulative SAD D_B of each neighbor over
// the structuring element B identifies the most spectrally pure (dilation,
// argmax D_B) and most highly mixed (erosion, argmin D_B) neighbors; the
// morphological eccentricity index MEI(x, y) accumulates the SAD between
// the two picks, and the image is replaced by its dilation before the next
// iteration.  The c highest-MEI pixels per worker are merged by the master
// into p <= c unique class representatives; a final parallel pass labels
// every pixel by its most similar representative.
//
// Interpretation notes: the paper leaves |B| unspecified (its companion
// work uses square structuring elements; we default to 5x5 = radius 2) and
// says MEI is "updated" each iteration, which we read as a running maximum
// so scores stay in [0, pi].
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/partition.hpp"
#include "hsi/cube.hpp"

namespace hprs::core {

/// Per-pixel workload model used by the WEA for this algorithm.
[[nodiscard]] WorkloadModel morph_workload(std::size_t bands,
                                           std::size_t classes,
                                           std::size_t iterations,
                                           std::size_t kernel_radius);

namespace detail {

/// MORPH's labeling (step 4): the label of every pixel of whole rows
/// [row_begin, row_end), row-major, is the first representative of least
/// SAD to it.  Dispatches between the per-pair reference loop (hsi::sad)
/// and the strip fast path, which takes the rep . pixel products of each
/// 64-pixel strip from one linalg::dot_strip call (the representatives
/// widened exactly to double) and the pixel norms from
/// linalg::norm_sq_strip; both return bit-identical labels.  The caller
/// charges hsi::flops::sad(bands) per pixel and representative.
[[nodiscard]] std::vector<std::uint16_t> sad_labels(
    const hsi::HsiCube& cube, std::size_t row_begin, std::size_t row_end,
    std::span<const std::span<const float>> reps);

}  // namespace detail

}  // namespace hprs::core
