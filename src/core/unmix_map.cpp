#include "core/unmix_map.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "core/ft.hpp"
#include "core/spmd_common.hpp"
#include "linalg/fcls.hpp"
#include "obs/host_profile.hpp"
#include "obs/metrics.hpp"
#include "linalg/flops.hpp"
#include "vmpi/comm.hpp"

namespace hprs::core {

namespace {

using linalg::flops::Count;

/// A worker's slice of the abundance planes.
struct AbundanceBlock {
  std::size_t row_begin = 0;
  std::size_t row_end = 0;
  /// pixel-major: [local pixel][endmember], then rmse appended per pixel.
  std::vector<float> abundances;
  std::vector<float> rmse;
};

}  // namespace

std::size_t AbundanceMaps::dominant(std::size_t row, std::size_t col) const {
  HPRS_REQUIRE(row < rows && col < cols, "pixel out of range");
  std::size_t best = 0;
  float best_v = -1.0f;
  for (std::size_t e = 0; e < endmembers; ++e) {
    const float v = planes[e * rows * cols + row * cols + col];
    if (v > best_v) {
      best_v = v;
      best = e;
    }
  }
  return best;
}

WorkloadModel unmix_workload(std::size_t bands, std::size_t endmembers) {
  WorkloadModel model;
  model.flops_per_pixel =
      static_cast<double>(linalg::flops::fcls(bands, endmembers, 2));
  model.bytes_per_pixel = bands * sizeof(float);
  model.scatter_input = false;
  model.sync_rounds = 1.0;  // one unmixing pass, one gather
  return model;
}

linalg::Matrix endmembers_at(const hsi::HsiCube& cube,
                             std::span<const PixelLocation> locations) {
  HPRS_REQUIRE(!locations.empty(), "need at least one endmember location");
  linalg::Matrix m;
  for (const auto& loc : locations) {
    m.append_row(detail::to_double(cube.pixel(loc.row, loc.col)));
  }
  return m;
}

AbundanceMaps run_unmix_map(const simnet::Platform& platform,
                            const hsi::HsiCube& cube,
                            const linalg::Matrix& endmembers,
                            const UnmixMapConfig& config,
                            vmpi::Options options) {
  HPRS_REQUIRE(endmembers.rows() >= 1, "need at least one endmember");
  HPRS_REQUIRE(endmembers.cols() == cube.bands(),
               "endmember band count does not match the cube");
  obs::Metrics::instance().add("core.runs.UNMIX", 1);
  obs::ScopedHostTimer obs_timer("core.run.UNMIX");
  HPRS_REQUIRE(!cube.empty(), "empty cube");

  AbundanceMaps result;
  result.endmembers = endmembers.rows();
  result.rows = cube.rows();
  result.cols = cube.cols();
  const std::size_t bands = cube.bands();
  const std::size_t cols = cube.cols();
  const std::size_t t = endmembers.rows();

  // One phase under the collective driver (core/ft.hpp): every rank
  // factors the shipped endmember matrix once and unmixes its chunk.
  ft::Program prog;
  prog.model = unmix_workload(bands, t);
  prog.model.scatter_input = config.charge_data_staging;
  prog.policy = config.policy;
  prog.memory_fraction = config.memory_fraction;
  prog.replication = config.replication;
  prog.handlers.push_back([&](vmpi::Comm& comm, const ft::Chunk& chunk,
                              const std::any* payload) {
    const linalg::Unmixer unmixer(
        std::any_cast<const linalg::Matrix&>(*payload));
    comm.compute(linalg::flops::gram(bands, t) + linalg::flops::cholesky(t));
    const RowPartition& part = chunk.part;
    AbundanceBlock block;
    block.row_begin = part.row_begin;
    block.row_end = part.row_end;
    block.abundances.reserve(part.owned_rows() * cols * t);
    block.rmse.reserve(part.owned_rows() * cols);
    Count flops = 0;
    for (std::size_t r = part.row_begin; r < part.row_end; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        const auto unmix = unmixer.fcls(cube.pixel(r, c));
        flops += linalg::flops::fcls(
            bands, t, static_cast<Count>(unmix.iterations) + 1);
        for (const double a : unmix.abundances) {
          block.abundances.push_back(static_cast<float>(a));
        }
        block.rmse.push_back(static_cast<float>(
            std::sqrt(unmix.error_sq / static_cast<double>(bands))));
      }
    }
    comm.compute(flops * config.replication);
    const std::size_t bytes = (block.abundances.size() + block.rmse.size()) *
                              sizeof(float) * config.replication;
    return ft::ChunkOutcome{std::move(block), bytes};
  });
  prog.master = [&](vmpi::Comm& comm, ft::PhaseDriver& driver,
                    const std::vector<ft::Handler>& h) {
    // Shared broadcast: only the root stages a copy; the others alias it.
    const auto blocks = ft::results_as<AbundanceBlock>(driver.phase(
        h[0],
        std::make_shared<const std::any>(comm.is_root() ? endmembers
                                                        : linalg::Matrix()),
        t * bands * sizeof(double)));
    if (!comm.is_root()) return;
    result.planes.assign(t * cube.pixel_count(), 0.0f);
    result.rmse.assign(cube.pixel_count(), 0.0f);
    for (const auto& blk : blocks) {
      std::size_t k = 0;
      for (std::size_t r = blk.row_begin; r < blk.row_end; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
          for (std::size_t e = 0; e < t; ++e) {
            result.planes[e * cube.pixel_count() + r * cols + c] =
                blk.abundances[k * t + e];
          }
          result.rmse[r * cols + c] = blk.rmse[k];
          ++k;
        }
      }
    }
    comm.compute(cube.pixel_count() / 8, vmpi::Phase::kSequential);
  };
  result.report = ft::run_on_engine(platform, cube, prog, options);
  return result;
}

}  // namespace hprs::core
