#include "core/spmd_common.hpp"

#include <algorithm>

#include "hsi/metrics.hpp"
#include "linalg/flops.hpp"
#include "linalg/thread_pool.hpp"
#include "linalg/vec.hpp"

namespace hprs::core::detail {

TileStream begin_tile_stream(vmpi::Comm& comm, const PartitionView& view,
                             std::size_t tile_rows, bool streaming,
                             std::size_t replication) {
  TileStream ts;
  const RowPartition& part = view.part;
  const std::size_t bytes_per_row =
      view.cube->cols() * view.cube->bytes_per_pixel();
  ts.tiles = linalg::make_row_tiles(
      part.row_begin, part.row_end, bytes_per_row,
      linalg::resolve_tile_rows(tile_rows, part.owned_rows()));
  ts.streaming = streaming;
  if (!streaming) return ts;
  // Enqueue every tile's copy now, in tile order: the DMA pipe drains in
  // the background while the host-side phases that precede the device
  // sweeps (clustering, means, gathers) run, and each sweep only waits out
  // whatever part of its tile's copy is still exposed.
  ts.staged_until.reserve(ts.tiles.size());
  for (const linalg::TileDesc& tile : ts.tiles) {
    ts.staged_until.push_back(
        comm.stage_to_device_async(tile.bytes * replication));
  }
  return ts;
}

BrightestOut brightest_sweep(const hsi::HsiCube& cube, std::size_t row_begin,
                             std::size_t row_end) {
  BrightestOut out;
  for (std::size_t r = row_begin; r < row_end; ++r) {
    for (std::size_t c = 0; c < cube.cols(); ++c) {
      const double score = linalg::norm_sq(cube.pixel(r, c));
      out.flops += linalg::flops::dot(cube.bands());
      if (score > out.best.score) out.best = Candidate{r, c, score};
    }
  }
  return out;
}

double osp_score(const linalg::Matrix& targets,
                 const linalg::Cholesky& gram_factor,
                 std::span<const float> pixel) {
  const std::size_t t = targets.rows();
  std::vector<double> b(t);
  for (std::size_t i = 0; i < t; ++i) {
    b[i] = linalg::dot<double, float>(targets.row(i), pixel);
  }
  const std::vector<double> z = gram_factor.solve(b);
  const double xx = linalg::norm_sq(pixel);
  const double bz = linalg::dot<double, double>(b, z);
  return xx - bz;
}

Candidate osp_argmax_sweep(const linalg::Matrix& targets,
                           const linalg::Cholesky& gram_factor,
                           const hsi::HsiCube& cube, std::size_t row_begin,
                           std::size_t row_end,
                           linalg::ScratchArena& arena) {
  Candidate best{0, 0, -1.0};
  const std::size_t cols = cube.cols();
  if (linalg::use_reference_kernels()) {
    for (std::size_t r = row_begin; r < row_end; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        const double score = osp_score(targets, gram_factor, cube.pixel(r, c));
        if (score > best.score) best = Candidate{r, c, score};
      }
    }
    return best;
  }

  constexpr std::size_t kStrip = 64;
  const std::size_t t = targets.rows();
  const std::size_t bands = cube.bands();
  const std::size_t n_rows = row_end > row_begin ? row_end - row_begin : 0;
  // Contiguous row-block ownership with per-worker scratch (the arena's
  // chunks are stable, so spans taken up front survive the region).  Each
  // worker scans its rows in the serial row-major order with
  // strictly-greater updates; folding the per-worker bests in ascending
  // worker order with the same comparison reproduces the serial sweep's
  // first-maximum exactly, so the thread count cannot change the pick.
  const std::size_t workers =
      std::max<std::size_t>(1, std::min(linalg::kernel_threads(), n_rows));
  arena.reset();
  struct WorkerLane {
    std::span<double> b, xx, z;
    Candidate best{0, 0, -1.0};
  };
  std::vector<WorkerLane> lanes(workers);
  for (auto& lane : lanes) {
    lane.b = arena.take(kStrip * t);
    lane.xx = arena.take(kStrip);
    lane.z = arena.take(t);
  }
  linalg::parallel_region(workers, [&](std::size_t worker,
                                       std::size_t actual) {
    // `actual` can be smaller than the planned lane count (a nested region
    // runs inline); stride over lanes so every block is still scanned.
    for (std::size_t w = worker; w < workers; w += actual) {
    WorkerLane& lane = lanes[w];
    const std::size_t per = (n_rows + workers - 1) / workers;
    const std::size_t r0 = row_begin + w * per;
    const std::size_t r1 = std::min(row_end, r0 + per);
    for (std::size_t r = r0; r < r1; ++r) {
      const float* row = cube.pixel(r, 0).data();
      for (std::size_t c0 = 0; c0 < cols; c0 += kStrip) {
        const std::size_t m = std::min(kStrip, cols - c0);
        const float* x = row + c0 * bands;
        linalg::dot_strip(targets, x, m, lane.b);
        linalg::norm_sq_strip(x, m, bands, lane.xx);
        for (std::size_t p = 0; p < m; ++p) {
          const std::span<const double> bp = lane.b.subspan(p * t, t);
          gram_factor.solve_into(bp, lane.z);
          const double score =
              lane.xx[p] - linalg::dot<double, double>(bp, lane.z);
          if (score > lane.best.score) lane.best = Candidate{r, c0 + p, score};
        }
      }
    }
    }
  });
  for (const auto& lane : lanes) {
    if (lane.best.score > best.score) best = lane.best;
  }
  return best;
}

linalg::Matrix ridged_row_gram(const linalg::Matrix& u) {
  linalg::Matrix g = u.multiply(u.transposed());
  double trace = 0.0;
  for (std::size_t i = 0; i < g.rows(); ++i) trace += g(i, i);
  const double ridge = 1e-10 * trace / static_cast<double>(g.rows());
  for (std::size_t i = 0; i < g.rows(); ++i) g(i, i) += ridge;
  return g;
}

std::vector<double> to_double(std::span<const float> pixel) {
  return std::vector<double>(pixel.begin(), pixel.end());
}

UniqueSetSelection consolidate_unique_set(
    std::span<const SpectralCandidate> pool, std::size_t c,
    double sad_threshold) {
  UniqueSetSelection out;

  struct Cluster {
    std::size_t exemplar;   // pool index of the first (best-quality) member
    std::size_t support = 1;
  };
  std::vector<Cluster> clusters;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    bool merged = false;
    for (auto& cl : clusters) {
      ++out.sad_evals;
      if (hsi::sad<float, float>(pool[cl.exemplar].spectrum,
                                 pool[i].spectrum) <= sad_threshold) {
        ++cl.support;
        merged = true;
        break;
      }
    }
    if (!merged) {
      clusters.push_back(Cluster{i, 1});
    }
  }

  // Rank clusters by support, breaking ties by candidate quality and then
  // pool order (all deterministic).
  std::sort(clusters.begin(), clusters.end(),
            [&](const Cluster& a, const Cluster& b) {
              if (a.support != b.support) return a.support > b.support;
              if (pool[a.exemplar].weight != pool[b.exemplar].weight) {
                return pool[a.exemplar].weight > pool[b.exemplar].weight;
              }
              return a.exemplar < b.exemplar;
            });
  const std::size_t keep = std::min(c, clusters.size());
  out.chosen.reserve(keep);
  for (std::size_t k = 0; k < keep; ++k) {
    out.chosen.push_back(clusters[k].exemplar);
  }
  return out;
}

void assemble_label_image(vmpi::Comm& comm,
                          const std::vector<LabelBlock>& blocks,
                          const hsi::HsiCube& cube, std::size_t reps,
                          AlgorithmOutput& result) {
  result.labels.assign(cube.pixel_count(), 0);
  for (const auto& blk : blocks) {
    std::copy(blk.labels.begin(), blk.labels.end(),
              result.labels.begin() +
                  static_cast<std::ptrdiff_t>(blk.row_begin * cube.cols()));
  }
  result.label_count = std::max<std::size_t>(1, reps);
  comm.compute(cube.pixel_count() / 8, vmpi::Phase::kSequential);
}

}  // namespace hprs::core::detail
