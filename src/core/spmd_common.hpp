// Building blocks shared by the algorithm Programs (core/ft_programs.hpp)
// and the collective driver that runs them (core/ft.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "core/ft.hpp"
#include "core/partition.hpp"
#include "core/runner.hpp"
#include "core/types.hpp"
#include "hsi/cube.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "linalg/solve.hpp"
#include "linalg/tile_graph.hpp"
#include "vmpi/comm.hpp"

namespace hprs::core::detail {

/// A worker's local argmax/argmin proposal sent back to the master.
struct Candidate {
  std::size_t row = 0;
  std::size_t col = 0;
  double score = 0.0;
};
/// Wire size of one candidate: two 32-bit coordinates plus the score (the
/// real implementation would send exactly this struct).
inline constexpr std::size_t kCandidateBytes = 2 * 4 + 8;

/// One rank's tile plan for the tiled BLAS3 sweeps: row-strip tiles over
/// the partition's owned rows plus, in streaming mode, the virtual
/// completion time of each tile's asynchronous host->device copy.
struct TileStream {
  std::vector<linalg::TileDesc> tiles;
  /// Parallel to `tiles`; empty unless `streaming`.
  std::vector<double> staged_until;
  bool streaming = false;
};

/// Builds the tile plan for `view`.  With streaming off the caller has
/// already staged the whole block synchronously (the historic charge,
/// bit-identical) and this only cuts tiles; with streaming on this
/// enqueues one stage_to_device_async per tile, in tile order, so the DMA
/// pipeline drains in the shadow of whatever host-side phases precede the
/// device sweeps.
[[nodiscard]] TileStream begin_tile_stream(vmpi::Comm& comm,
                                           const PartitionView& view,
                                           std::size_t tile_rows,
                                           bool streaming,
                                           std::size_t replication);

/// Runs `body` once per tile of `ts`, in tile order (accumulators extend
/// strictly in tile order, which is what keeps tiled sums bit-identical to
/// the monolithic sweep), and charges the sweep's virtual time.  `body`
/// returns the flops it performed on the tile.  Non-streaming: flops
/// accumulate across tiles and the sweep charges ONE compute -- the same
/// single multiply-then-charge as the monolithic path, so virtual time is
/// bit-identical.  Streaming: each tile first waits out the exposed part of
/// its staged copy, then charges its own compute, paying the kernel-launch
/// latency only on the sweep's first tile (one batched launch per sweep).
template <typename Body>
void tiled_sweep(vmpi::Comm& comm, const TileStream& ts,
                 std::size_t replication, Body&& body) {
  if (!ts.streaming) {
    std::uint64_t flops = 0;
    for (const linalg::TileDesc& tile : ts.tiles) flops += body(tile);
    comm.compute(flops * replication);
    return;
  }
  for (std::size_t k = 0; k < ts.tiles.size(); ++k) {
    comm.stage_wait(ts.staged_until[k]);
    comm.compute_tile(body(ts.tiles[k]) * replication, k == 0);
  }
}

/// The brightest pixel of rows [row_begin, row_end) -- the first row-major
/// argmax of the squared norm -- plus the flops performed, for the caller to
/// charge.  Tiles of a partition fold their results with the same
/// strictly-greater comparison in tile order, which reproduces the
/// monolithic sweep's first maximum exactly.
struct BrightestOut {
  Candidate best{0, 0, -1.0};
  std::uint64_t flops = 0;
};
[[nodiscard]] BrightestOut brightest_sweep(const hsi::HsiCube& cube,
                                           std::size_t row_begin,
                                           std::size_t row_end);

/// OSP score ||P_U_perp x||^2 = x.x - b . G^-1 b computed against the
/// factored Gram of the current target matrix.  Cost:
/// linalg::flops::osp_score(n, U.rows()).
[[nodiscard]] double osp_score(const linalg::Matrix& targets,
                               const linalg::Cholesky& gram_factor,
                               std::span<const float> pixel);

/// Argmax of the OSP score over whole rows [row_begin, row_end) of the
/// cube, scanning pixels in row-major order with strictly-greater updates.
/// Dispatches between the per-pixel reference loop (osp_score per pixel)
/// and the strip-blocked fast path, which forms U^T X over 64-pixel strips
/// as one BLAS3 product (linalg::dot_strip), back-solves each column into a
/// reusable scratch buffer, and never touches the heap per pixel.  Both
/// paths return bit-identical candidates.  The caller charges
/// linalg::flops::osp_score(bands, U.rows()) per pixel as before.
[[nodiscard]] Candidate osp_argmax_sweep(const linalg::Matrix& targets,
                                         const linalg::Cholesky& gram_factor,
                                         const hsi::HsiCube& cube,
                                         std::size_t row_begin,
                                         std::size_t row_end,
                                         linalg::ScratchArena& arena);

/// Gram matrix of the rows of U with a tiny relative ridge so the Cholesky
/// factorization survives nearly collinear targets.
[[nodiscard]] linalg::Matrix ridged_row_gram(const linalg::Matrix& u);

/// Copies a float pixel spectrum into a double row for the target matrix.
[[nodiscard]] std::vector<double> to_double(std::span<const float> pixel);

/// A unique-set candidate as gathered from the workers: a pixel spectrum
/// plus an optional quality weight (MORPH's MEI score; zero for PCT).
struct SpectralCandidate {
  PixelLocation loc;
  std::vector<float> spectrum;
  double weight = 0.0;
};

struct UniqueSetSelection {
  /// Indices into the candidate pool of the chosen exemplars (at most c).
  std::vector<std::size_t> chosen;
  /// SAD evaluations performed (for virtual-time charging).
  std::uint64_t sad_evals = 0;
};

/// Master-side consolidation of the workers' unique-set candidates (paper
/// step "the P unique sets are combined"): an online clustering pass merges
/// candidates within `sad_threshold` of a cluster exemplar (pool order,
/// which the callers pre-sort by quality), then the exemplars of the `c`
/// best-supported clusters are selected.  Ranking clusters by how many
/// workers' candidates they absorbed keeps rare outliers (single fire
/// pixels, odd mixtures) from displacing the scene's real constituents --
/// the behaviour the paper's accuracy tables imply but whose mechanism it
/// leaves unspecified.
[[nodiscard]] UniqueSetSelection consolidate_unique_set(
    std::span<const SpectralCandidate> pool, std::size_t c,
    double sad_threshold);

/// A worker's labeled slice (PCT and MORPH): the labels of its owned rows
/// [row_begin, row_end), row-major.
struct LabelBlock {
  std::size_t row_begin = 0;
  std::size_t row_end = 0;
  std::vector<std::uint16_t> labels;
};

/// Master assembly of the label image from the workers' disjoint blocks
/// (block order is irrelevant): sets `reps` classes (at least one) and
/// charges the root's sequential copy.
void assemble_label_image(vmpi::Comm& comm,
                          const std::vector<LabelBlock>& blocks,
                          const hsi::HsiCube& cube, std::size_t reps,
                          AlgorithmOutput& result);

}  // namespace hprs::core::detail
