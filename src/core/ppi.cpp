#include "core/ppi.hpp"

#include <algorithm>
#include <any>
#include <cmath>
#include <limits>
#include <map>
#include <memory>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/ft_programs.hpp"
#include "core/spmd_common.hpp"
#include "obs/host_profile.hpp"
#include "obs/metrics.hpp"
#include "linalg/flops.hpp"
#include "linalg/vec.hpp"
#include "vmpi/comm.hpp"

namespace hprs::core {

namespace {

using linalg::flops::Count;

/// A ranked purity candidate at the master.
struct PurityEntry {
  std::size_t row = 0;
  std::size_t col = 0;
  std::uint32_t count = 0;
};

/// Per-skewer local extremes a worker reports: projection values plus the
/// pixel locations realizing them.
struct SkewerExtreme {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  std::size_t lo_row = 0, lo_col = 0;
  std::size_t hi_row = 0, hi_col = 0;
};
/// Wire size of one SkewerExtreme (two doubles + four 32-bit coordinates).
constexpr std::size_t kExtremeBytes = 2 * 8 + 4 * 4;

/// K unit skewers on `bands` channels, deterministic in the seed.
linalg::Matrix make_skewers(std::size_t k, std::size_t bands,
                            std::uint64_t seed) {
  Xoshiro256 rng(seed);
  linalg::Matrix skewers(k, bands);
  for (std::size_t s = 0; s < k; ++s) {
    auto row = skewers.row(s);
    double norm_sq = 0.0;
    for (std::size_t b = 0; b < bands; ++b) {
      row[b] = rng.normal();
      norm_sq += row[b] * row[b];
    }
    const double inv = 1.0 / std::sqrt(std::max(norm_sq, 1e-300));
    for (std::size_t b = 0; b < bands; ++b) row[b] *= inv;
  }
  return skewers;
}

/// Root-side fold: the global extreme per skewer, folded in chunk order
/// with ties broken by row-major position so the outcome cannot depend on
/// the partitioning, then the `config.targets` highest purity counts.
void rank_purity(vmpi::Comm& comm,
                 const std::vector<std::vector<SkewerExtreme>>& parts,
                 const PpiConfig& config, PpiResult& result) {
  std::map<std::pair<std::size_t, std::size_t>, std::uint32_t> counts;
  for (std::size_t s = 0; s < config.skewers; ++s) {
    std::size_t lo_row = 0, lo_col = 0, hi_row = 0, hi_col = 0;
    double lo = std::numeric_limits<double>::infinity();
    double hi = -lo;
    for (const auto& part : parts) {
      const auto& ext = part[s];
      if (ext.lo < lo ||
          (ext.lo == lo && std::make_pair(ext.lo_row, ext.lo_col) <
                               std::make_pair(lo_row, lo_col))) {
        lo = ext.lo;
        lo_row = ext.lo_row;
        lo_col = ext.lo_col;
      }
      if (ext.hi > hi ||
          (ext.hi == hi && std::make_pair(ext.hi_row, ext.hi_col) <
                               std::make_pair(hi_row, hi_col))) {
        hi = ext.hi;
        hi_row = ext.hi_row;
        hi_col = ext.hi_col;
      }
    }
    ++counts[{lo_row, lo_col}];
    ++counts[{hi_row, hi_col}];
  }
  comm.compute(config.skewers * parts.size() * 4, vmpi::Phase::kSequential);

  std::vector<PurityEntry> all;
  all.reserve(counts.size());
  for (const auto& [loc, count] : counts) {
    all.push_back(PurityEntry{loc.first, loc.second, count});
  }
  // Deterministic ranking: count desc, then row-major position.
  std::sort(all.begin(), all.end(),
            [](const PurityEntry& a, const PurityEntry& b) {
              if (a.count != b.count) return a.count > b.count;
              if (a.row != b.row) return a.row < b.row;
              return a.col < b.col;
            });
  const std::size_t keep = std::min(config.targets, all.size());
  for (std::size_t k = 0; k < keep; ++k) {
    result.targets.push_back({all[k].row, all[k].col});
    result.scores.push_back(all[k].count);
  }
}

}  // namespace

/// Parallel PPI as one Program (core/ft.hpp): the projection pass is the
/// phase handler, run per chunk against the skewer matrix the root draws
/// and ships as the phase payload; the root folds the per-chunk extremes in
/// chunk order with row-major position tie-breaks, so the purity counts
/// (and hence the ranked targets) cannot depend on the partitioning or on
/// which rank computed which chunk.
ft::Program ppi_ft_program(const hsi::HsiCube& cube, const PpiConfig& config,
                           PpiResult& result) {
  HPRS_REQUIRE(!cube.empty(), "empty cube");
  HPRS_REQUIRE(config.targets >= 1, "targets = 0: need at least one target");
  HPRS_REQUIRE(config.skewers >= 1, "skewers = 0: need at least one skewer");
  ft::Program prog;
  prog.model = ppi_workload(cube.bands(), config.skewers);
  prog.model.scatter_input = config.charge_data_staging;
  prog.policy = config.policy;
  prog.memory_fraction = config.memory_fraction;
  prog.replication = config.replication;
  // Phase 0: per-skewer projection extremes over the chunk's rows.
  prog.handlers.push_back(
      [&cube, config](vmpi::Comm& c, const ft::Chunk& chunk,
                      const std::any* payload) {
        const auto& skewers = std::any_cast<const linalg::Matrix&>(*payload);
        const std::size_t bands = cube.bands();
        const std::size_t cols = cube.cols();
        std::vector<SkewerExtreme> local(config.skewers);
        Count flops = 0;
        for (std::size_t s = 0; s < config.skewers; ++s) {
          const auto skewer = skewers.row(s);
          auto& ext = local[s];
          for (std::size_t r = chunk.part.row_begin; r < chunk.part.row_end;
               ++r) {
            for (std::size_t col = 0; col < cols; ++col) {
              const double proj =
                  linalg::dot<double, float>(skewer, cube.pixel(r, col));
              flops += linalg::flops::dot(bands);
              if (proj < ext.lo) {
                ext.lo = proj;
                ext.lo_row = r;
                ext.lo_col = col;
              }
              if (proj > ext.hi) {
                ext.hi = proj;
                ext.hi_row = r;
                ext.hi_col = col;
              }
            }
          }
        }
        c.compute(flops * config.replication);
        return ft::ChunkOutcome{std::move(local),
                                config.skewers * kExtremeBytes};
      });

  prog.master = [&cube, config, &result](vmpi::Comm& comm,
                                         ft::PhaseDriver& driver,
                                         const std::vector<ft::Handler>& h) {
    const bool root = comm.is_root();
    const std::size_t bands = cube.bands();

    // The root draws the skewers once and ships them as the phase payload.
    linalg::Matrix drawn;
    if (root) {
      drawn = make_skewers(config.skewers, bands, config.seed);
      comm.compute(config.skewers * (3 * bands + 1),
                   vmpi::Phase::kSequential);
    }
    const std::size_t skewer_bytes = config.skewers * bands * sizeof(double);
    const auto parts =
        ft::results_as<std::vector<SkewerExtreme>>(driver.phase(
            0, h[0], std::make_shared<const std::any>(std::move(drawn)),
            skewer_bytes));

    if (root) rank_purity(comm, parts, config, result);
    driver.finish();
  };
  return prog;
}

WorkloadModel ppi_workload(std::size_t bands, std::size_t skewers) {
  WorkloadModel model;
  model.flops_per_pixel = static_cast<double>(
      skewers * linalg::flops::dot(bands));
  model.bytes_per_pixel = bands * sizeof(float);
  model.scatter_input = false;
  model.sync_rounds = 1.0;  // single projection pass, single reduction
  return model;
}

PpiResult run_ppi(const simnet::Platform& platform, const hsi::HsiCube& cube,
                  const PpiConfig& config, vmpi::Options options) {
  PpiResult result;
  const ft::Program prog = ppi_ft_program(cube, config, result);
  obs::Metrics::instance().add("core.runs.PPI", 1);
  obs::ScopedHostTimer obs_timer("core.run.PPI");
  result.report = ft::run_on_engine(platform, cube, prog, config.fault_tolerant,
                                    options);
  return result;
}

}  // namespace hprs::core
