#include "core/ufcls.hpp"

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
      [config](vmpi::Comm& c, const ft::Chunk& chunk, const std::any*) {
        const detail::SweepOut out =
            detail::brightest_sweep(chunk.state->projections,
                                    chunk.part.row_begin, chunk.part.row_end);
        c.compute(out.flops * config.replication);
        return ft::ChunkOutcome{out.best, detail::kCandidateBytes};
      });
  // Phase 1: the chunk's FCLS error argmax against the shipped targets.
  prog.handlers.push_back(
      [&cube, config](vmpi::Comm& c, const ft::Chunk& chunk,
                      const std::any* payload) {
        const auto& u = std::any_cast<const detail::SharedTargets&>(*payload);
        const linalg::Unmixer unmixer(*u);
        c.compute(linalg::flops::gram(cube.bands(), u->rows()) +
                  linalg::flops::cholesky(u->rows()));
        linalg::ScratchArena arena;
        const detail::SweepOut out = detail::fcls_error_sweep(
            chunk.state->projections, u, unmixer, chunk.part.row_begin,
            chunk.part.row_end, arena);
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
      const auto round = ft::results_as<Candidate>(
          driver.phase(h[1], detail::targets_payload(targets), u_bytes));
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
