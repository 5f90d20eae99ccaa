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

#include "core/partition.hpp"

namespace hprs::core {

/// Per-pixel workload model used by the WEA for this algorithm.
[[nodiscard]] WorkloadModel morph_workload(std::size_t bands,
                                           std::size_t classes,
                                           std::size_t iterations,
                                           std::size_t kernel_radius);

}  // namespace hprs::core
