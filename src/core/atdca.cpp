#include "core/atdca.hpp"

#include <any>
#include <limits>
#include <memory>

#include "common/error.hpp"
#include "core/ft_programs.hpp"
#include "core/spmd_common.hpp"
#include "linalg/flops.hpp"
#include "linalg/vec.hpp"
#include "vmpi/comm.hpp"

namespace hprs::core {

namespace {

using detail::Candidate;
using linalg::flops::Count;

/// First row-major argmax of the squared norm over rows
/// [row_begin, row_end), plus the flops performed.  Tiles of a partition
/// fold their results with the same strictly-greater comparison in tile
/// order, which reproduces the monolithic sweep's first-maximum exactly.
struct BrightOut {
  Candidate best{0, 0, -1.0};
  Count flops = 0;
};

BrightOut brightest_range(const hsi::HsiCube& cube, std::size_t row_begin,
                          std::size_t row_end) {
  BrightOut out;
  for (std::size_t r = row_begin; r < row_end; ++r) {
    for (std::size_t c = 0; c < cube.cols(); ++c) {
      const double score = linalg::norm_sq(cube.pixel(r, c));
      out.flops += linalg::flops::dot(cube.bands());
      if (score > out.best.score) out.best = Candidate{r, c, score};
    }
  }
  return out;
}

/// Master-side selection of the winning candidate, charged as the paper
/// describes: the master re-applies the current operator at the P proposed
/// locations before picking the maximum.
Candidate select_best(vmpi::Comm& comm, const std::vector<Candidate>& cands,
                      Count per_candidate_flops) {
  Candidate best{0, 0, -std::numeric_limits<double>::infinity()};
  for (const auto& c : cands) {
    if (c.score > best.score) best = c;
  }
  comm.compute(per_candidate_flops * cands.size() + cands.size(),
               vmpi::Phase::kSequential);
  return best;
}

}  // namespace

/// Paper Alg. 2 as one Program (core/ft.hpp): the brightest-pixel and OSP
/// sweeps are the phase handlers, the root grows U.  Folding candidates in
/// chunk order reproduces the gather's rank-order fold, so both drivers
/// extract the same targets.
ft::Program atdca_ft_program(const hsi::HsiCube& cube,
                             const AtdcaConfig& config,
                             TargetDetectionResult& result) {
  HPRS_REQUIRE(!cube.empty(), "empty cube");
  HPRS_REQUIRE(config.targets >= 1, "targets = 0: need at least one target");
  ft::Program prog;
  prog.model = atdca_workload(cube.bands(), config.targets);
  prog.model.scatter_input = config.charge_data_staging;
  prog.policy = config.policy;
  prog.memory_fraction = config.memory_fraction;
  prog.replication = config.replication;
  prog.tile_rows = config.tile_rows;
  prog.tile_stream = config.tile_stream;
  // Phase 0: the chunk's brightest pixel, swept tile by tile (fold order ==
  // tile order == row-major order, so the pick is the monolithic one).
  prog.handlers.push_back(
      [&cube, config](vmpi::Comm& c, const ft::Chunk& chunk, const std::any*) {
        Candidate best{0, 0, -1.0};
        detail::sweep_chunk(c, chunk, config.replication,
                            [&](const linalg::TileDesc& t) {
                              const BrightOut out = brightest_range(
                                  cube, t.row_begin, t.row_end);
                              if (out.best.score > best.score) best = out.best;
                              return out.flops;
                            });
        return ft::ChunkOutcome{best, detail::kCandidateBytes};
      });
  // Phase 1: the chunk's OSP argmax against the shipped target matrix U.
  // osp_argmax_sweep returns the first row-major maximum of its range, so
  // folding per-tile bests strictly-greater in tile order reproduces the
  // monolithic sweep's pick exactly.
  prog.handlers.push_back([&cube, config](vmpi::Comm& c,
                                          const ft::Chunk& chunk,
                                          const std::any* payload) {
    const auto& u = std::any_cast<const linalg::Matrix&>(*payload);
    const linalg::Cholesky gram(detail::ridged_row_gram(u));
    c.compute(linalg::flops::gram(cube.bands(), u.rows()) +
              linalg::flops::cholesky(u.rows()));
    linalg::ScratchArena arena;
    Candidate best{0, 0, -1.0};
    detail::sweep_chunk(
        c, chunk, config.replication, [&](const linalg::TileDesc& t) {
          const Candidate cand = detail::osp_argmax_sweep(
              u, gram, cube, t.row_begin, t.row_end, arena);
          if (cand.score > best.score) best = cand;
          return static_cast<Count>(t.rows()) * cube.cols() *
                 linalg::flops::osp_score(cube.bands(), u.rows());
        });
    return ft::ChunkOutcome{best, detail::kCandidateBytes};
  });

  prog.master = [&cube, config, &result](vmpi::Comm& comm,
                                         ft::PhaseDriver& driver,
                                         const std::vector<ft::Handler>& h) {
    const bool root = comm.is_root();
    const std::size_t bands = cube.bands();
    std::vector<PixelLocation> found;
    linalg::Matrix targets;  // t x bands, grown at the root
    const auto grow = [&](const Candidate& c) {
      found.push_back({c.row, c.col});
      targets.append_row(detail::to_double(cube.pixel(c.row, c.col)));
    };

    // Steps 2-3: global brightest pixel.
    const auto seeds = ft::results_as<Candidate>(driver.phase(0, h[0]));
    if (root) grow(select_best(comm, seeds, linalg::flops::dot(bands)));

    // Steps 4-6: grow U one orthogonal target at a time.
    for (std::size_t t = 1; t < config.targets; ++t) {
      const std::size_t u_bytes = targets.rows() * bands * sizeof(double);
      const auto round = ft::results_as<Candidate>(driver.phase(
          1, h[1], std::make_shared<const std::any>(targets), u_bytes));
      if (root) {
        grow(select_best(comm, round, linalg::flops::osp_score(bands, t)));
      }
    }
    const std::size_t u_bytes = targets.rows() * bands * sizeof(double);
    driver.release(std::make_shared<const std::any>(std::move(targets)),
                   u_bytes);
    driver.finish();
    if (root) result.targets = std::move(found);
  };
  return prog;
}

WorkloadModel atdca_workload(std::size_t bands, std::size_t targets) {
  // Brightness pass plus t-1 projection passes of growing width.
  Count flops = linalg::flops::dot(bands);
  for (std::size_t t = 1; t < targets; ++t) {
    flops += linalg::flops::osp_score(bands, t);
  }
  WorkloadModel model;
  model.flops_per_pixel = static_cast<double>(flops);
  model.bytes_per_pixel = bands * sizeof(float);
  model.scatter_input = false;
  model.sync_rounds = static_cast<double>(targets);
  return model;
}

TargetDetectionResult run_atdca(const simnet::Platform& platform,
                                const hsi::HsiCube& cube,
                                const AtdcaConfig& config,
                                vmpi::Options options) {
  TargetDetectionResult result;
  result.report =
      ft::run_on_engine(platform, cube, atdca_ft_program(cube, config, result),
                        config.fault_tolerant, options);
  return result;
}

}  // namespace hprs::core
