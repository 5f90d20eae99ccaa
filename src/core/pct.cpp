#include "core/pct.hpp"

#include <algorithm>
#include <any>
#include <limits>
#include <memory>

#include "common/error.hpp"
#include "core/ft_programs.hpp"
#include "core/spmd_common.hpp"
#include "hsi/metrics.hpp"
#include "linalg/eigen.hpp"
#include "linalg/flops.hpp"
#include "linalg/vec.hpp"
#include "vmpi/comm.hpp"

namespace hprs::core {

namespace {

using linalg::flops::Count;

/// A unique-set member: where it came from and its full spectrum.
struct Rep {
  PixelLocation loc;
  std::vector<float> spectrum;
};

std::size_t rep_bytes(std::size_t bands, std::size_t count) {
  return count * (bands * sizeof(float) + 8);
}

/// Everything the workers need for the transform + labeling stage.
struct PctBundle {
  linalg::Matrix transform;      // c x bands (leading eigenvector rows)
  std::vector<double> mean;      // bands
  linalg::Matrix reduced_reps;   // label_count x c (reps in PCT space)
};

// --- per-chunk kernels and root-side folds ---------------------------------

/// Step 2: online SAD clustering of rows [row_begin, row_end); returns the
/// best-supported 3c exemplars and the SAD count for the caller to charge.
struct UniqueOut {
  std::vector<Rep> reps;
  Count sad_evals = 0;
};

UniqueOut local_unique_sets(const hsi::HsiCube& cube, std::size_t row_begin,
                            std::size_t row_end, const RunnerConfig& config) {
  const std::size_t cols = cube.cols();
  struct LocalCluster {
    Rep exemplar;
    std::size_t support = 1;
    double norm = 0.0;  // ||exemplar|| (fast path: hoisted out of sad)
  };
  const bool fast = !linalg::use_reference_kernels();
  UniqueOut out;
  std::vector<LocalCluster> local_clusters;
  for (std::size_t r = row_begin; r < row_end; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const auto px = cube.pixel(r, c);
      const double px_norm = fast ? linalg::norm(px) : 0.0;
      bool merged = false;
      for (auto& cl : local_clusters) {
        ++out.sad_evals;
        const double dist =
            fast ? hsi::sad_with_norms<float, float>(cl.exemplar.spectrum,
                                                     px, cl.norm, px_norm)
                 : hsi::sad<float, float>(cl.exemplar.spectrum, px);
        if (dist <= config.sad_threshold) {
          ++cl.support;
          merged = true;
          break;
        }
      }
      if (!merged) {
        local_clusters.push_back(LocalCluster{
            Rep{{r, c}, std::vector<float>(px.begin(), px.end())}, 1,
            px_norm});
      }
    }
  }
  std::sort(local_clusters.begin(), local_clusters.end(),
            [](const LocalCluster& a, const LocalCluster& b) {
              if (a.support != b.support) return a.support > b.support;
              if (a.exemplar.loc.row != b.exemplar.loc.row) {
                return a.exemplar.loc.row < b.exemplar.loc.row;
              }
              return a.exemplar.loc.col < b.exemplar.loc.col;
            });
  const std::size_t local_cap =
      std::min<std::size_t>(3 * config.classes, local_clusters.size());
  out.reps.reserve(local_cap);
  for (std::size_t k = 0; k < local_cap; ++k) {
    out.reps.push_back(std::move(local_clusters[k].exemplar));
  }
  return out;
}

/// Step 3 (master): merges the per-partition unique sets, in partition
/// order, into at most c exemplars.  Charges the consolidation SADs.
std::vector<Rep> merge_unique_sets(vmpi::Comm& comm,
                                   std::vector<std::vector<Rep>> rep_sets,
                                   const RunnerConfig& config,
                                   std::size_t bands) {
  std::vector<detail::SpectralCandidate> pool;
  for (auto& set : rep_sets) {
    for (auto& rep : set) {
      pool.push_back(detail::SpectralCandidate{rep.loc,
                                               std::move(rep.spectrum),
                                               0.0});
    }
  }
  const auto selection = detail::consolidate_unique_set(
      pool, config.classes, config.sad_threshold);
  std::vector<Rep> unique;
  for (const std::size_t idx : selection.chosen) {
    unique.push_back(Rep{pool[idx].loc, std::move(pool[idx].spectrum)});
  }
  comm.compute(selection.sad_evals * hsi::flops::sad(bands),
               vmpi::Phase::kSequential);
  return unique;
}

/// Steps 4-5: accumulates the band sums of rows [row_begin, row_end) into
/// `sums` (length bands) and returns the flops performed.  Tiles of a
/// partition call this back to back on one shared `sums`: each band's
/// addition chain extends strictly in row order, so any tiling of the
/// owned range is bit-identical to the monolithic sweep.
Count accum_mean_rows(const hsi::HsiCube& cube, std::size_t row_begin,
                      std::size_t row_end, double* sums) {
  const std::size_t bands = cube.bands();
  const std::size_t cols = cube.cols();
  Count flops = 0;
  for (std::size_t r = row_begin; r < row_end; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const auto px = cube.pixel(r, c);
      for (std::size_t b = 0; b < bands; ++b) {
        sums[b] += px[b];
      }
      flops += bands;
    }
  }
  return flops;
}

/// Master fold of the partition band sums (partition order) into the mean.
std::vector<double> fold_mean(vmpi::Comm& comm,
                              const std::vector<std::vector<double>>& parts,
                              std::size_t pixel_count, std::size_t bands) {
  std::vector<double> mean(bands, 0.0);
  for (const auto& part : parts) {
    for (std::size_t b = 0; b < bands; ++b) mean[b] += part[b];
  }
  const double n = static_cast<double>(pixel_count);
  for (auto& m : mean) m /= n;
  comm.compute(parts.size() * bands + bands, vmpi::Phase::kSequential);
  return mean;
}

/// Step 6: accumulates the centered covariance triangle of rows
/// [row_begin, row_end) into `tri` and returns the flops performed,
/// dispatching between the per-pixel rank-1 loop and the strip syrk fast
/// path (bit-identical sums).  Like accum_mean_rows, tiles extend each
/// triangle element's addition chain in row order on a shared `tri`, so
/// any tiling is bit-identical to the monolithic sweep.
Count accum_cov_rows(const hsi::HsiCube& cube, std::size_t row_begin,
                     std::size_t row_end, const std::vector<double>& mean,
                     double* tri) {
  const std::size_t bands = cube.bands();
  const std::size_t cols = cube.cols();
  const std::size_t tri_n = bands * (bands + 1) / 2;
  Count flops = 0;
  if (linalg::use_reference_kernels()) {
    std::vector<double> centered(bands);
    for (std::size_t r = row_begin; r < row_end; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        const auto px = cube.pixel(r, c);
        for (std::size_t b = 0; b < bands; ++b) {
          centered[b] = static_cast<double>(px[b]) - mean[b];
        }
        std::size_t k = 0;
        for (std::size_t i = 0; i < bands; ++i) {
          const double di = centered[i];
          for (std::size_t j = i; j < bands; ++j) {
            tri[k++] += di * centered[j];
          }
        }
        flops += bands + 2 * tri_n;
      }
    }
    return flops;
  }
  // Strip fast path: center a strip of pixels once, then apply one
  // rank-m syrk update to the packed triangle.  The per-element p-chain
  // extends the running value in the triangle, so the sums are
  // bit-identical to the per-pixel rank-1 loop above.
  constexpr std::size_t kStrip = 64;
  std::vector<double> cstrip(kStrip * bands);
  for (std::size_t r = row_begin; r < row_end; ++r) {
    const float* row = cube.pixel(r, 0).data();
    for (std::size_t c0 = 0; c0 < cols; c0 += kStrip) {
      const std::size_t m = std::min(kStrip, cols - c0);
      const float* x = row + c0 * bands;
      for (std::size_t p = 0; p < m; ++p) {
        for (std::size_t b = 0; b < bands; ++b) {
          cstrip[p * bands + b] =
              static_cast<double>(x[p * bands + b]) - mean[b];
        }
      }
      linalg::syrk_tri_update(cstrip.data(), m, bands, tri);
      flops += static_cast<Count>(m) * (bands + 2 * tri_n);
    }
  }
  return flops;
}

/// Step 7 (master): folds the covariance parts (partition order), solves
/// the eigenproblem, and builds the transform/labeling bundle.
PctBundle build_bundle(vmpi::Comm& comm,
                       const std::vector<std::vector<double>>& cov_parts,
                       const std::vector<double>& mean,
                       const std::vector<Rep>& unique,
                       const RunnerConfig& config, const hsi::HsiCube& cube) {
  const std::size_t bands = cube.bands();
  const std::size_t tri = bands * (bands + 1) / 2;
  std::vector<double> cov_sum(tri, 0.0);
  for (const auto& part : cov_parts) {
    for (std::size_t k = 0; k < tri; ++k) cov_sum[k] += part[k];
  }
  linalg::Matrix cov(bands, bands);
  const double n = static_cast<double>(cube.pixel_count());
  std::size_t k = 0;
  for (std::size_t i = 0; i < bands; ++i) {
    for (std::size_t j = i; j < bands; ++j) {
      cov(i, j) = cov_sum[k] / n;
      cov(j, i) = cov(i, j);
      ++k;
    }
  }
  comm.compute(cov_parts.size() * tri + tri, vmpi::Phase::kSequential);

  const auto eig = linalg::jacobi_eigen(cov);
  comm.compute(static_cast<Count>(eig.sweeps) *
                   linalg::flops::jacobi_sweep(bands),
               vmpi::Phase::kSequential);

  PctBundle bundle;
  bundle.transform = linalg::Matrix(config.classes, bands);
  for (std::size_t comp = 0; comp < config.classes; ++comp) {
    for (std::size_t b = 0; b < bands; ++b) {
      bundle.transform(comp, b) = eig.vectors(comp, b);
    }
  }
  bundle.mean = mean;

  // Project the unique set into the reduced space.
  const std::size_t label_count = unique.size();
  std::vector<double> centered(bands);
  bundle.reduced_reps = linalg::Matrix(label_count, config.classes);
  for (std::size_t u = 0; u < label_count; ++u) {
    for (std::size_t b = 0; b < bands; ++b) {
      centered[b] =
          static_cast<double>(unique[u].spectrum[b]) - mean[b];
    }
    const auto y = bundle.transform.multiply(centered);
    for (std::size_t comp = 0; comp < config.classes; ++comp) {
      bundle.reduced_reps(u, comp) = y[comp];
    }
  }
  comm.compute(label_count * (bands + linalg::flops::matvec(
                                          config.classes, bands)),
               vmpi::Phase::kSequential);
  return bundle;
}

/// Steps 8-9: transform + reduced-space labeling of [row_begin, row_end).
struct LabelOut {
  detail::LabelBlock block;
  Count flops = 0;
};

LabelOut label_partition(const hsi::HsiCube& cube, std::size_t row_begin,
                         std::size_t row_end, const PctBundle& bundle,
                         const RunnerConfig& config) {
  const std::size_t bands = cube.bands();
  const std::size_t cols = cube.cols();
  const std::size_t reps = bundle.reduced_reps.rows();
  LabelOut out;
  out.block.row_begin = row_begin;
  out.block.row_end = row_end;
  out.block.labels.reserve((row_end - row_begin) * cols);
  const auto classify = [&](std::span<const double> y) {
    std::uint16_t best = 0;
    double best_d = std::numeric_limits<double>::infinity();
    for (std::size_t u = 0; u < reps; ++u) {
      // Minimum Euclidean distance in the reduced space: the PCT
      // projection is mean-centered, so distances (not angles) are the
      // meaningful similarity there.
      double dist = 0.0;
      const auto rep = bundle.reduced_reps.row(u);
      for (std::size_t k = 0; k < config.classes; ++k) {
        const double diff = rep[k] - y[k];
        dist += diff * diff;
      }
      if (dist < best_d) {
        best_d = dist;
        best = static_cast<std::uint16_t>(u);
      }
    }
    return best;
  };
  if (linalg::use_reference_kernels()) {
    std::vector<double> centered(bands);
    for (std::size_t r = row_begin; r < row_end; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        const auto px = cube.pixel(r, c);
        for (std::size_t b = 0; b < bands; ++b) {
          centered[b] = static_cast<double>(px[b]) - bundle.mean[b];
        }
        const auto y = bundle.transform.multiply(centered);
        out.block.labels.push_back(classify(y));
        out.flops += bands +
                     linalg::flops::matvec(config.classes, bands) +
                     reps * 3 * config.classes;
      }
    }
    return out;
  }
  // Strip fast path: center a strip once, project all its pixels with
  // one BLAS3 dot_strip call, and classify from the projection buffer.
  // dot_strip reproduces the matvec's per-row dot chains exactly, so
  // the labels match the reference pass bit for bit.
  constexpr std::size_t kStrip = 64;
  std::vector<double> cstrip(kStrip * bands);
  std::vector<double> ystrip(kStrip * config.classes);
  for (std::size_t r = row_begin; r < row_end; ++r) {
    const float* row = cube.pixel(r, 0).data();
    for (std::size_t c0 = 0; c0 < cols; c0 += kStrip) {
      const std::size_t m = std::min(kStrip, cols - c0);
      const float* x = row + c0 * bands;
      for (std::size_t p = 0; p < m; ++p) {
        for (std::size_t b = 0; b < bands; ++b) {
          cstrip[p * bands + b] =
              static_cast<double>(x[p * bands + b]) - bundle.mean[b];
        }
      }
      linalg::dot_strip(bundle.transform, cstrip.data(), m,
                        std::span<double>(ystrip));
      for (std::size_t p = 0; p < m; ++p) {
        out.block.labels.push_back(classify(std::span<const double>(
            ystrip.data() + p * config.classes, config.classes)));
        out.flops += bands +
                     linalg::flops::matvec(config.classes, bands) +
                     reps * 3 * config.classes;
      }
    }
  }
  return out;
}

}  // namespace

/// The paper's PCT classifier as one Program (core/ft.hpp): unique sets,
/// band sums, covariance and labeling are the phase handlers; the root
/// merges the unique sets, folds the mean, solves the eigenproblem and
/// assembles the label image.
ft::Program pct_ft_program(const hsi::HsiCube& cube,
                           const RunnerConfig& config,
                           AlgorithmOutput& result) {
  HPRS_REQUIRE(config.classes >= 1, "classes = 0: need at least one class");
  HPRS_REQUIRE(config.classes <= cube.bands(),
               "classes = " + std::to_string(config.classes) +
                   " exceeds the cube's " + std::to_string(cube.bands()) +
                   " bands: cannot extract more components than bands");
  ft::Program prog;
  prog.model = pct_workload(cube.bands(), config.classes);
  prog.model.tile_stream = config.tile_stream;
  prog.tile_rows = config.tile_rows;
  // Phase 0 (step 2): local unique spectral sets.  Online SAD clustering of
  // the chunk's pixels: each pixel either joins the first cluster whose
  // exemplar is within the threshold or founds a new cluster; the
  // best-supported 3c exemplars go to the root, so rare mixtures do not
  // crowd out the partition's real constituents.
  prog.handlers.push_back(
      [&cube, config](vmpi::Comm& c, const ft::Chunk& chunk, const std::any*) {
        const std::size_t bands = cube.bands();
        UniqueOut out = local_unique_sets(cube, chunk.part.row_begin,
                                          chunk.part.row_end, config);
        c.compute(out.sad_evals * hsi::flops::sad(bands) *
                  config.replication);
        const std::size_t count = out.reps.size();
        return ft::ChunkOutcome{std::move(out.reps),
                                rep_bytes(bands, count)};
      });
  // Phase 1 (steps 4-5): band sums, swept tile by tile over one shared
  // accumulator: tiles extend each band's addition chain in row order, so
  // any tiling is bit-identical to the monolithic sweep.
  prog.handlers.push_back(
      [&cube, config](vmpi::Comm& c, const ft::Chunk& chunk, const std::any*) {
        std::vector<double> sums(cube.bands(), 0.0);
        detail::tiled_sweep(c, chunk.state->tiles, config.replication,
                            [&](const linalg::TileDesc& t) {
                              return accum_mean_rows(cube, t.row_begin,
                                                     t.row_end, sums.data());
                            });
        return ft::ChunkOutcome{std::move(sums),
                                cube.bands() * sizeof(double)};
      });
  // Phase 2 (step 6): covariance triangle against the shipped mean, tiled
  // like the band sums.
  prog.handlers.push_back(
      [&cube, config](vmpi::Comm& c, const ft::Chunk& chunk,
                      const std::any* payload) {
        const auto& mean = std::any_cast<const std::vector<double>&>(*payload);
        const std::size_t tri = cube.bands() * (cube.bands() + 1) / 2;
        std::vector<double> sums(tri, 0.0);
        detail::tiled_sweep(c, chunk.state->tiles, config.replication,
                            [&](const linalg::TileDesc& t) {
                              return accum_cov_rows(cube, t.row_begin,
                                                    t.row_end, mean,
                                                    sums.data());
                            });
        return ft::ChunkOutcome{std::move(sums), tri * sizeof(double)};
      });
  // Phase 3 (steps 8-9): transform + labeling against the shipped bundle.
  prog.handlers.push_back(
      [&cube, config](vmpi::Comm& c, const ft::Chunk& chunk,
                      const std::any* payload) {
        const auto& bundle = std::any_cast<const PctBundle&>(*payload);
        LabelOut out = label_partition(cube, chunk.part.row_begin,
                                       chunk.part.row_end, bundle, config);
        c.compute(out.flops * config.replication);
        const std::size_t bytes =
            out.block.labels.size() * sizeof(std::uint16_t) *
            config.replication;
        return ft::ChunkOutcome{std::move(out.block), bytes};
      });

  prog.master = [&cube, config, &result](vmpi::Comm& comm,
                                         ft::PhaseDriver& driver,
                                         const std::vector<ft::Handler>& h) {
    const bool root = comm.is_root();
    const std::size_t bands = cube.bands();

    // Steps 2-3: unique sets, merged in chunk (== rank) order.
    auto rep_sets = ft::results_as<std::vector<Rep>>(driver.phase(h[0]));
    std::vector<Rep> unique;
    if (root) {
      unique = merge_unique_sets(comm, std::move(rep_sets), config, bands);
    }

    // Steps 4-6: mean, then covariance against it.
    const auto mean_parts =
        ft::results_as<std::vector<double>>(driver.phase(h[1]));
    std::vector<double> mean;
    if (root) mean = fold_mean(comm, mean_parts, cube.pixel_count(), bands);
    const auto cov_parts = ft::results_as<std::vector<double>>(
        driver.phase(h[2], std::make_shared<const std::any>(mean),
                     bands * sizeof(double)));

    // Step 7: sequential eigendecomposition + bundle at the root.
    PctBundle bundle;
    if (root) {
      bundle = build_bundle(comm, cov_parts, mean, unique, config, cube);
    }
    const std::size_t reps = bundle.reduced_reps.rows();
    const std::size_t bundle_bytes =
        config.classes * bands * sizeof(double) + bands * sizeof(double) +
        config.classes * config.classes * sizeof(double);

    // Steps 8-9: labeling against the shipped bundle.
    const auto blocks = ft::results_as<detail::LabelBlock>(driver.phase(
        h[3], std::make_shared<const std::any>(std::move(bundle)),
        bundle_bytes));
    if (root) detail::assemble_label_image(comm, blocks, cube, reps, result);
  };
  return prog;
}

WorkloadModel pct_workload(std::size_t bands, std::size_t classes) {
  // Unique-set comparisons, mean + covariance accumulation, projection, and
  // reduced-space labeling per pixel.
  const Count unique = 3 * classes * hsi::flops::sad(bands);
  const Count stats = bands + bands + bands * (bands + 1);
  const Count project = linalg::flops::matvec(classes, bands) + bands;
  const Count label = classes * hsi::flops::sad(classes);
  WorkloadModel model;
  model.flops_per_pixel =
      static_cast<double>(unique + stats + project + label);
  model.bytes_per_pixel = bands * sizeof(float);
  model.scatter_input = false;
  model.sync_rounds = 4.0;  // unique sets, mean, covariance, labeling
  // Nominal 8-sweep Jacobi eigensolve of the band covariance on the master
  // -- the serial O(bands^3)-per-sweep section every rank waits on.
  model.seq_flops = 8.0 * static_cast<double>(linalg::flops::jacobi_sweep(
                              static_cast<Count>(bands)));
  return model;
}

}  // namespace hprs::core
