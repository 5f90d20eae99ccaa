#include "core/spmd_common.hpp"

#include <algorithm>
#include <cstring>

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

namespace {

/// Pixels per gather of the cached sweeps: the strip the strip kernels
/// filled, so each lane's scratch is what it was before the cache.
constexpr std::size_t kStrip = 64;

/// The cached sweeps' scan of rows [row_begin, row_end) of the cache's
/// chunk: lane w of `lanes` owns a contiguous block of rows, gathers it from
/// the cache a strip at a time into its `b` and `xx` scratch and calls
/// visit(lanes[w], b_p, xx_p, row, col) for each pixel in row-major order.
/// Each lane keeps its own results; folding them in ascending lane order
/// with the serial scan's comparisons gives that scan's result at any
/// thread count.
template <typename Lane, typename Visit>
void visit_cached_pixels(const ProjectionCache& cache, std::size_t row_begin,
                         std::size_t row_end, std::vector<Lane>& lanes,
                         Visit&& visit) {
  const std::size_t t = cache.rows();
  const std::size_t cols = cache.cube().cols();
  const std::size_t q0 = cache.first_pixel(row_begin);
  linalg::for_each_lane(
      row_end - row_begin, lanes.size(),
      [&](std::size_t w, std::size_t r0, std::size_t r1) {
        Lane& lane = lanes[w];
        for (std::size_t p0 = r0 * cols; p0 < r1 * cols; p0 += kStrip) {
          const std::size_t m = std::min(kStrip, r1 * cols - p0);
          cache.gather(q0 + p0, m, lane.b, lane.xx);
          for (std::size_t p = 0; p < m; ++p) {
            visit(lane, std::span<const double>(lane.b).subspan(p * t, t),
                  lane.xx[p], row_begin + (p0 + p) / cols, (p0 + p) % cols);
          }
        }
      });
}

}  // namespace

ProjectionCache::ProjectionCache(const hsi::HsiCube& cube,
                                 std::size_t row_begin, std::size_t row_end)
    : cube_(&cube),
      row_begin_(row_begin),
      pixels_((row_end - row_begin) * cube.cols()) {
  HPRS_ASSERT(row_begin <= row_end && row_end <= cube.rows());
}

std::size_t ProjectionCache::first_pixel(std::size_t row) const {
  HPRS_ASSERT(row >= row_begin_);
  return (row - row_begin_) * cube_->cols();
}

std::span<const double> ProjectionCache::norms() {
  if (norms_.size() != pixels_) {
    norms_.resize(pixels_);
    linalg::norm_sq_strip(chunk_samples(), pixels_, cube_->bands(), norms_);
  }
  return norms_;
}

void ProjectionCache::sync(SharedTargets u) {
  HPRS_ASSERT(u != nullptr && u->cols() == cube_->bands());
  if (u == held_) return;
  (void)norms();
  const std::size_t row_bytes = u->cols() * sizeof(double);
  std::size_t keep = 0;
  while (keep < std::min(rows(), u->rows()) &&
         std::memcmp(u->row(keep).data(), held_->row(keep).data(),
                     row_bytes) == 0) {
    ++keep;
  }
  dots_.resize(keep);
  for (std::size_t i = keep; i < u->rows(); ++i) {
    const std::span<const double> row = u->row(i);
    const linalg::Matrix one(1, row.size(), {row.begin(), row.end()});
    dots_.emplace_back(pixels_);
    linalg::dot_strip(one, chunk_samples(), pixels_, dots_.back());
  }
  held_ = std::move(u);
}

void ProjectionCache::gather(std::size_t q0, std::size_t m,
                             std::span<double> b,
                             std::span<double> xx) const {
  const std::size_t t = rows();
  HPRS_ASSERT(q0 + m <= pixels_ && norms_.size() == pixels_ &&
              b.size() >= m * t && xx.size() >= m);
  for (std::size_t i = 0; i < t; ++i) {
    const double* dots = dots_[i].data() + q0;
    for (std::size_t p = 0; p < m; ++p) b[p * t + i] = dots[p];
  }
  std::copy_n(norms_.data() + q0, m, xx.begin());
}

const float* ProjectionCache::chunk_samples() const {
  return cube_->samples().data() + row_begin_ * cube_->cols() * cube_->bands();
}

SweepOut brightest_sweep(ProjectionCache& cache, std::size_t row_begin,
                         std::size_t row_end) {
  const hsi::HsiCube& cube = cache.cube();
  const bool reference = linalg::use_reference_kernels();
  const std::span<const double> norms =
      reference ? std::span<const double>() : cache.norms();
  SweepOut out;
  std::size_t q = cache.first_pixel(row_begin);
  for (std::size_t r = row_begin; r < row_end; ++r) {
    for (std::size_t c = 0; c < cube.cols(); ++c, ++q) {
      const double score =
          reference ? linalg::norm_sq(cube.pixel(r, c)) : norms[q];
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

Candidate osp_argmax_sweep(ProjectionCache& cache,
                           const SharedTargets& targets,
                           const linalg::Cholesky& gram_factor,
                           std::size_t row_begin, std::size_t row_end,
                           linalg::ScratchArena& arena) {
  const hsi::HsiCube& cube = cache.cube();
  const std::size_t cols = cube.cols();
  Candidate best{0, 0, -1.0};
  if (linalg::use_reference_kernels()) {
    for (std::size_t r = row_begin; r < row_end; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        const double score =
            osp_score(*targets, gram_factor, cube.pixel(r, c));
        if (score > best.score) best = Candidate{r, c, score};
      }
    }
    return best;
  }

  cache.sync(targets);
  const std::size_t t = targets->rows();
  struct Lane {
    std::span<double> b, xx, z;
    Candidate best{0, 0, -1.0};
  };
  std::vector<Lane> lanes(linalg::kernel_lanes(row_end - row_begin));
  arena.reset();
  for (Lane& lane : lanes) {
    lane.b = arena.take(kStrip * t);
    lane.xx = arena.take(kStrip);
    lane.z = arena.take(t);
  }
  visit_cached_pixels(
      cache, row_begin, row_end, lanes,
      [&](Lane& lane, std::span<const double> b, double xx, std::size_t r,
          std::size_t c) {
        gram_factor.solve_into(b, lane.z);
        const double score = xx - linalg::dot<double, double>(b, lane.z);
        if (score > lane.best.score) lane.best = Candidate{r, c, score};
      });
  for (const Lane& lane : lanes) {
    if (lane.best.score > best.score) best = lane.best;
  }
  return best;
}

SweepOut fcls_error_sweep(ProjectionCache& cache, const SharedTargets& targets,
                          const linalg::Unmixer& unmixer,
                          std::size_t row_begin, std::size_t row_end,
                          linalg::ScratchArena& arena) {
  const hsi::HsiCube& cube = cache.cube();
  const std::size_t t = targets->rows();
  const std::size_t bands = cube.bands();
  const std::size_t cols = cube.cols();
  HPRS_ASSERT(unmixer.endmember_count() == t);
  SweepOut out;
  if (linalg::use_reference_kernels()) {
    for (std::size_t r = row_begin; r < row_end; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        const auto unmix = unmixer.fcls(cube.pixel(r, c));
        out.flops += linalg::flops::fcls(
            bands, t, static_cast<std::uint64_t>(unmix.iterations) + 1);
        if (unmix.error_sq > out.best.score) {
          out.best = Candidate{r, c, unmix.error_sq};
        }
      }
    }
    return out;
  }

  cache.sync(targets);
  struct Lane {
    std::span<double> b, xx;
    SweepOut out;
  };
  std::vector<Lane> lanes(linalg::kernel_lanes(row_end - row_begin));
  arena.reset();
  for (Lane& lane : lanes) {
    lane.b = arena.take(kStrip * t);
    lane.xx = arena.take(kStrip);
  }
  visit_cached_pixels(
      cache, row_begin, row_end, lanes,
      [&](Lane& lane, std::span<const double> b, double xx, std::size_t r,
          std::size_t c) {
        const auto unmix = unmixer.fcls_with_corr(b, xx);
        lane.out.flops += linalg::flops::fcls(
            bands, t, static_cast<std::uint64_t>(unmix.iterations) + 1);
        if (unmix.error_sq > lane.out.best.score) {
          lane.out.best = Candidate{r, c, unmix.error_sq};
        }
      });
  // Flop counts are integers, so their sum cannot depend on the lanes.
  for (const Lane& lane : lanes) {
    out.flops += lane.out.flops;
    if (lane.out.best.score > out.best.score) out.best = lane.out.best;
  }
  return out;
}

std::shared_ptr<const std::any> targets_payload(
    const linalg::Matrix& targets) {
  return std::make_shared<const std::any>(
      std::make_shared<const linalg::Matrix>(targets));
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
