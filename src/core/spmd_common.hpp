// Building blocks shared by the algorithm Programs (core/ft_programs.hpp)
// and the collective driver that runs them (core/ft.hpp).
#pragma once

#include <any>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/ft.hpp"
#include "core/partition.hpp"
#include "core/runner.hpp"
#include "core/types.hpp"
#include "hsi/cube.hpp"
#include "linalg/fcls.hpp"
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

/// The target matrix U as ATDCA and UFCLS ship it each round: one immutable
/// matrix every rank reads, which a ProjectionCache may keep after the round.
using SharedTargets = std::shared_ptr<const linalg::Matrix>;

/// ATDCA's and UFCLS's per-pixel projections of one chunk, kept across
/// rounds: ||x_p||^2 of every owned pixel and dot(U_i, x_p) for every row of
/// U seen so far, pixels indexed row-major from the chunk's first row.  U
/// only grows, so each round adds one dot_strip call over the chunk where
/// recomputing would project every pixel onto all t rows again; each value
/// is the one linalg::dot or linalg::norm_sq forms, so every consumer stays
/// bit-identical to the per-pixel reference loops.  Holds
/// pixels x (rows + 1) doubles plus a handle on the U it was built from.
class ProjectionCache {
 public:
  /// An empty cache over the whole rows [row_begin, row_end) of `cube`.
  ProjectionCache(const hsi::HsiCube& cube, std::size_t row_begin,
                  std::size_t row_end);

  /// Brings the cache to `u`: the rows it holds stay while they equal u's
  /// leading rows bit for bit, everything from the first mismatch is
  /// dropped, and each missing row costs one dot_strip call over the chunk.
  /// Computes the pixel norms first if they are missing.
  void sync(SharedTargets u);

  /// The owned pixels' squared norms, computed on the first call with one
  /// norm_sq_strip call over the chunk.
  std::span<const double> norms();

  /// Copies the m pixels from local index q0 on into the layout the strip
  /// kernels fill: b[p * rows() + i] = dot(U_i, x_{q0+p}) and xx[p] =
  /// ||x_{q0+p}||^2.  Needs sync() first.
  void gather(std::size_t q0, std::size_t m, std::span<double> b,
              std::span<double> xx) const;

  /// Rows of U held.
  [[nodiscard]] std::size_t rows() const { return dots_.size(); }
  [[nodiscard]] const hsi::HsiCube& cube() const { return *cube_; }
  /// Local index of the first pixel of cube row `row` (row >= row_begin).
  [[nodiscard]] std::size_t first_pixel(std::size_t row) const;

 private:
  /// The chunk's first sample: its pixels are contiguous from here.
  [[nodiscard]] const float* chunk_samples() const;

  const hsi::HsiCube* cube_;
  std::size_t row_begin_;
  std::size_t pixels_;
  std::vector<double> norms_;
  /// dots_[i][q] = dot(U_i, x_q) for the rows of held_.
  std::vector<std::vector<double>> dots_;
  SharedTargets held_;
};

/// What the collective driver keeps for each chunk it dealt to this rank,
/// for the lifetime of the driver: the tile plan and the projection cache.
/// A chunk dealt again (adopted after a crash, resumed from a checkpoint)
/// gets a fresh one.
struct ChunkState {
  TileStream tiles;
  ProjectionCache projections;
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

/// What a sweep over rows [row_begin, row_end) finds: its first row-major
/// maximum (strictly-greater updates) plus the flops it performed, for the
/// caller to charge.  Tiles of a partition fold their bests with the same
/// comparison in tile order, which reproduces the monolithic sweep's first
/// maximum exactly.
struct SweepOut {
  Candidate best{0, 0, -1.0};
  std::uint64_t flops = 0;
};

/// The brightest pixel of rows [row_begin, row_end) of the cache's chunk:
/// the maximum of the squared norm.  Dispatches between the per-pixel
/// reference loop (linalg::norm_sq) and the cached norms.
[[nodiscard]] SweepOut brightest_sweep(ProjectionCache& cache,
                                       std::size_t row_begin,
                                       std::size_t row_end);

/// OSP score ||P_U_perp x||^2 = x.x - b . G^-1 b computed against the
/// factored Gram of the current target matrix.  Cost:
/// linalg::flops::osp_score(n, U.rows()).
[[nodiscard]] double osp_score(const linalg::Matrix& targets,
                               const linalg::Cholesky& gram_factor,
                               std::span<const float> pixel);

/// Argmax of the OSP score over whole rows [row_begin, row_end) of the
/// cache's chunk, scanning pixels in row-major order with strictly-greater
/// updates.  Dispatches between the per-pixel reference loop (osp_score per
/// pixel) and the cached path, which syncs the cache to `targets` and
/// back-solves each pixel's cached column into lane scratch, never touching
/// the heap per pixel; kernel lanes own contiguous blocks of rows and fold
/// in ascending order.  Both paths return bit-identical candidates.  The
/// caller charges linalg::flops::osp_score(bands, U.rows()) per pixel.
[[nodiscard]] Candidate osp_argmax_sweep(ProjectionCache& cache,
                                         const SharedTargets& targets,
                                         const linalg::Cholesky& gram_factor,
                                         std::size_t row_begin,
                                         std::size_t row_end,
                                         linalg::ScratchArena& arena);

/// Argmax of the FCLS reconstruction error over whole rows [row_begin,
/// row_end) of the cache's chunk; the flops depend on each pixel's
/// active-set iterations.  Dispatches between the per-pixel reference loop
/// (Unmixer::fcls) and the cached path, which syncs the cache to `targets`
/// (the unmixer's signatures) and runs Unmixer::fcls_with_corr on each
/// pixel's cached column, in lanes like osp_argmax_sweep; both return
/// bit-identical results.
[[nodiscard]] SweepOut fcls_error_sweep(ProjectionCache& cache,
                                        const SharedTargets& targets,
                                        const linalg::Unmixer& unmixer,
                                        std::size_t row_begin,
                                        std::size_t row_end,
                                        linalg::ScratchArena& arena);

/// The phase payload ATDCA and UFCLS ship each round: a snapshot of the
/// grown target matrix as SharedTargets.
[[nodiscard]] std::shared_ptr<const std::any> targets_payload(
    const linalg::Matrix& targets);

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
