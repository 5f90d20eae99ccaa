#include "core/ufcls.hpp"

#include <algorithm>
#include <any>
#include <limits>
#include <memory>

#include "common/error.hpp"
#include "core/ft_programs.hpp"
#include "core/spmd_common.hpp"
#include "linalg/fcls.hpp"
#include "linalg/flops.hpp"
#include "vmpi/comm.hpp"

namespace hprs::core {

namespace {

using detail::Candidate;
using linalg::flops::Count;

/// Argmax of the FCLS reconstruction error over rows [row_begin, row_end),
/// dispatching between the reference per-pixel loop and the strip-blocked
/// fast path (bit-identical results).  Returns the flop count for the
/// caller to charge.
struct ErrorSweepOut {
  Candidate best{0, 0, -1.0};
  Count flops = 0;
};

ErrorSweepOut fcls_error_sweep(const hsi::HsiCube& cube,
                               const linalg::Matrix& u,
                               const linalg::Unmixer& unmixer,
                               std::size_t row_begin, std::size_t row_end,
                               linalg::ScratchArena& arena) {
  ErrorSweepOut out;
  const std::size_t t_cur = u.rows();
  if (linalg::use_reference_kernels()) {
    for (std::size_t r = row_begin; r < row_end; ++r) {
      for (std::size_t c = 0; c < cube.cols(); ++c) {
        const auto unmix = unmixer.fcls(cube.pixel(r, c));
        out.flops += linalg::flops::fcls(
            cube.bands(), t_cur, static_cast<Count>(unmix.iterations) + 1);
        if (unmix.error_sq > out.best.score) {
          out.best = Candidate{r, c, unmix.error_sq};
        }
      }
    }
    return out;
  }
  // Strip fast path: the correlation vectors U^T x and pixel norms of
  // a whole strip are one BLAS3 product; the active-set solves then
  // run per pixel on the precomputed columns, bit-identical to
  // fcls(pixel).
  constexpr std::size_t kStrip = 64;
  const std::size_t bands = cube.bands();
  const std::size_t cols = cube.cols();
  arena.reset();
  const std::span<double> corr = arena.take(kStrip * t_cur);
  const std::span<double> xx = arena.take(kStrip);
  for (std::size_t r = row_begin; r < row_end; ++r) {
    const float* row = cube.pixel(r, 0).data();
    for (std::size_t c0 = 0; c0 < cols; c0 += kStrip) {
      const std::size_t m = std::min(kStrip, cols - c0);
      const float* x = row + c0 * bands;
      linalg::dot_strip(u, x, m, corr);
      linalg::norm_sq_strip(x, m, bands, xx);
      for (std::size_t p = 0; p < m; ++p) {
        const auto unmix =
            unmixer.fcls_with_corr(corr.subspan(p * t_cur, t_cur), xx[p]);
        out.flops += linalg::flops::fcls(
            bands, t_cur, static_cast<Count>(unmix.iterations) + 1);
        if (unmix.error_sq > out.best.score) {
          out.best = Candidate{r, c0 + p, unmix.error_sq};
        }
      }
    }
  }
  return out;
}

}  // namespace

/// Paper Alg. 3 as one Program (core/ft.hpp): the brightest-pixel and
/// FCLS-error sweeps are the phase handlers, the root grows the target set
/// with chunk-order folds.
ft::Program ufcls_ft_program(const hsi::HsiCube& cube,
                             const RunnerConfig& config,
                             AlgorithmOutput& result) {
  HPRS_REQUIRE(config.targets >= 1, "targets = 0: need at least one target");
  ft::Program prog;
  prog.model = ufcls_workload(cube.bands(), config.targets);
  // Phase 0: the chunk's brightest pixel, charged in one compute.
  prog.handlers.push_back(
      [&cube, config](vmpi::Comm& c, const ft::Chunk& chunk, const std::any*) {
        const detail::BrightestOut out = detail::brightest_sweep(
            cube, chunk.part.row_begin, chunk.part.row_end);
        c.compute(out.flops * config.replication);
        return ft::ChunkOutcome{out.best, detail::kCandidateBytes};
      });
  // Phase 1: the chunk's FCLS error argmax against the shipped targets.
  prog.handlers.push_back(
      [&cube, config](vmpi::Comm& c, const ft::Chunk& chunk,
                      const std::any* payload) {
        const auto& u = std::any_cast<const linalg::Matrix&>(*payload);
        const linalg::Unmixer unmixer(u);
        c.compute(linalg::flops::gram(cube.bands(), u.rows()) +
                  linalg::flops::cholesky(u.rows()));
        linalg::ScratchArena arena;
        const ErrorSweepOut out = fcls_error_sweep(
            cube, u, unmixer, chunk.part.row_begin, chunk.part.row_end, arena);
        c.compute(out.flops * config.replication);
        return ft::ChunkOutcome{out.best, detail::kCandidateBytes};
      });

  prog.master = [&cube, config, &result](vmpi::Comm& comm,
                                         ft::PhaseDriver& driver,
                                         const std::vector<ft::Handler>& h) {
    const bool root = comm.is_root();
    const std::size_t bands = cube.bands();
    std::vector<PixelLocation> found;
    linalg::Matrix targets;  // grown at the root
    // Root-side fold: the best candidate (chunk order), charged as the
    // master re-evaluating each proposal at `per_candidate_flops`.
    const auto grow = [&](const std::vector<Candidate>& cands,
                          Count per_candidate_flops) {
      Candidate best{0, 0, -std::numeric_limits<double>::infinity()};
      for (const auto& c : cands) {
        if (c.score > best.score) best = c;
      }
      comm.compute(per_candidate_flops * cands.size(),
                   vmpi::Phase::kSequential);
      found.push_back({best.row, best.col});
      targets.append_row(detail::to_double(cube.pixel(best.row, best.col)));
    };

    // Step 1: the brightest pixel seeds the target set.
    const auto seeds = ft::results_as<Candidate>(driver.phase(h[0]));
    if (root) grow(seeds, linalg::flops::dot(bands));

    // Steps 2-5: grow the target set by maximum reconstruction error.
    for (std::size_t t = 1; t < config.targets; ++t) {
      const std::size_t u_bytes = targets.rows() * bands * sizeof(double);
      const auto round = ft::results_as<Candidate>(driver.phase(
          h[1], std::make_shared<const std::any>(targets), u_bytes));
      if (root) grow(round, linalg::flops::fcls(bands, t, 2));
    }
    const std::size_t u_bytes = targets.rows() * bands * sizeof(double);
    driver.release(std::make_shared<const std::any>(std::move(targets)),
                   u_bytes);
    if (root) result.targets = std::move(found);
  };
  return prog;
}

WorkloadModel ufcls_workload(std::size_t bands, std::size_t targets) {
  // Brightness pass plus t-1 unmixing passes; assume a couple of active-set
  // iterations per pixel on average.
  Count flops = linalg::flops::dot(bands);
  for (std::size_t t = 1; t < targets; ++t) {
    flops += linalg::flops::fcls(bands, t, 2);
  }
  WorkloadModel model;
  model.flops_per_pixel = static_cast<double>(flops);
  model.bytes_per_pixel = bands * sizeof(float);
  model.scatter_input = false;
  model.sync_rounds = static_cast<double>(targets);
  return model;
}

}  // namespace hprs::core
