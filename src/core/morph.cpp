#include "core/morph.hpp"

#include <algorithm>
#include <any>
#include <limits>
#include <memory>

#include "common/error.hpp"
#include "core/ft_programs.hpp"
#include "core/morph_kernel.hpp"
#include "core/spmd_common.hpp"
#include "hsi/metrics.hpp"
#include "linalg/flops.hpp"
#include "linalg/kernels.hpp"
#include "linalg/vec.hpp"
#include "vmpi/comm.hpp"

namespace hprs::core {

namespace {

using linalg::flops::Count;

/// A unique-set candidate: location, original spectrum, and its MEI score.
struct MorphRep {
  PixelLocation loc;
  std::vector<float> spectrum;
  double mei = 0.0;
};

std::size_t rep_bytes(std::size_t bands, std::size_t count) {
  return count * (bands * sizeof(float) + 16);
}

/// A worker's labeled slice.
struct LabelBlock {
  std::size_t row_begin = 0;
  std::size_t row_end = 0;
  std::vector<std::uint16_t> labels;
};

/// Tracks flop charges split between owned rows (scaled by replication) and
/// redundant halo rows (physical cost only; halos do not grow with the
/// virtual scene).
struct SplitFlops {
  Count owned = 0;
  Count halo = 0;

  void add(bool in_owned, Count f) { (in_owned ? owned : halo) += f; }
  [[nodiscard]] Count charge(std::size_t replication) const {
    return owned * replication + halo;
  }
};

/// The per-worker morphological driver.  The numeric passes live in
/// MorphBlockEngine (core/morph_kernel.hpp); this wrapper owns the
/// ownership bookkeeping, halo exchange, candidate selection, and the
/// virtual-time charges.
///
/// Windows are clamped to the local block, so pixels near a partition
/// boundary see a truncated neighborhood exactly as pixels at the image
/// border do.  The overlap border of one kernel radius keeps the owned
/// rows' first-iteration neighborhoods exact; later iterations are
/// slightly approximate near partition seams -- the accuracy/communication
/// trade the paper's overlap-border design makes (its companion JPDC'06
/// paper sizes the overlap to the structuring element).  Halo-exchange
/// mode refreshes the borders every iteration and is the tighter (but
/// communication-heavy) alternative measured by bench_ablation_overlap.
class MorphWorker {
 public:
  MorphWorker(const hsi::HsiCube& cube, const RowPartition& part,
              const MorphConfig& config)
      : cube_(cube),
        config_(config),
        block_begin_(part.halo_begin),
        owned_begin_(part.row_begin),
        owned_end_(part.row_end),
        engine_(cube.copy_rows(part.halo_begin, part.halo_end),
                config.kernel_radius) {}

  /// Runs one MEI-update pass (and, unless `last`, the dilation) over the
  /// whole block.  Returns the flop charges of the pass.
  SplitFlops iterate(bool last);

  /// Refreshes up to `width` halo rows on each side from the owned rows of
  /// the neighbouring workers (halo-exchange mode).
  void exchange_halo(vmpi::Comm& comm, std::size_t width);

  /// The c highest-MEI owned pixels (original spectra).
  [[nodiscard]] std::vector<MorphRep> top_candidates() const;

 private:
  [[nodiscard]] std::size_t block_rows() const {
    return engine_.image().rows();
  }
  [[nodiscard]] std::size_t cols() const { return engine_.image().cols(); }
  /// Whether block row br corresponds to a row this worker owns.
  [[nodiscard]] bool is_owned(std::size_t br) const {
    const std::size_t global = block_begin_ + br;
    return global >= owned_begin_ && global < owned_end_;
  }

  const hsi::HsiCube& cube_;
  const MorphConfig& config_;
  std::size_t block_begin_;
  std::size_t owned_begin_;
  std::size_t owned_end_;
  MorphBlockEngine engine_;
};

SplitFlops MorphWorker::iterate(bool last) {
  engine_.iterate(last);

  // The charge of a pass is purely geometric: one SAD per (pixel, window
  // element) in the D pass, two compares per window element plus one SAD in
  // the MEI/dilation pass.  Charging it analytically keeps the virtual-time
  // model identical whichever kernel path executed the pass.
  const std::size_t r = config_.kernel_radius;
  const std::size_t rows = block_rows();
  const std::size_t n_cols = cols();
  const std::size_t bands = engine_.image().bands();
  SplitFlops flops;
  for (std::size_t x = 0; x < rows; ++x) {
    const bool owned = is_owned(x);
    const std::size_t i_lo = x >= r ? x - r : 0;
    const std::size_t i_hi = std::min(x + r + 1, rows);
    for (std::size_t y = 0; y < n_cols; ++y) {
      const std::size_t j_lo = y >= r ? y - r : 0;
      const std::size_t j_hi = std::min(y + r + 1, n_cols);
      const Count window = (i_hi - i_lo) * (j_hi - j_lo);
      flops.add(owned, window * hsi::flops::sad(bands));  // D pass
      flops.add(owned, window * 2);                       // argmin/argmax
      flops.add(owned, hsi::flops::sad(bands));           // MEI score
    }
  }
  return flops;
}

void MorphWorker::exchange_halo(vmpi::Comm& comm, std::size_t width) {
  // Ship our updated boundary rows to the vertical neighbours and splice
  // the received rows into our halo.  Row payloads are raw samples.
  hsi::HsiCube& f = engine_.image();
  const std::size_t n_cols = cols();
  const std::size_t bands = f.bands();
  const std::size_t row_bytes = n_cols * bands * sizeof(float);

  std::vector<std::tuple<int, std::vector<float>, std::size_t>> sends;
  const int rank = comm.rank();
  const auto pack_rows = [&](std::size_t lo, std::size_t hi) {
    std::vector<float> buf;
    buf.reserve((hi - lo) * n_cols * bands);
    for (std::size_t x = lo; x < hi; ++x) {
      const auto row = f.pixel(x, 0);
      const auto* begin = row.data();
      buf.insert(buf.end(), begin, begin + n_cols * bands);
    }
    return buf;
  };

  const std::size_t ob = owned_begin_ - block_begin_;  // owned range in block
  const std::size_t oe = owned_end_ - block_begin_;
  if (rank > 0 && owned_begin_ > 0) {
    const std::size_t hi = std::min(oe, ob + width);
    sends.emplace_back(rank - 1, pack_rows(ob, hi), (hi - ob) * row_bytes);
  }
  if (rank + 1 < comm.size() && owned_end_ < cube_.rows()) {
    const std::size_t lo = oe >= ob + width ? oe - width : ob;
    sends.emplace_back(rank + 1, pack_rows(lo, oe), (oe - lo) * row_bytes);
  }

  const auto received = comm.exchange(std::move(sends));
  for (const auto& [src, rows] : received) {
    const std::size_t count = rows.size() / (n_cols * bands);
    // Rows from the lower-ranked neighbour fill the top halo (they are the
    // rows just above our owned range); rows from above fill the bottom.
    const std::size_t dst_begin = src < rank ? ob - count : oe;
    for (std::size_t k = 0; k < count; ++k) {
      auto dst = f.pixel(dst_begin + k, 0);
      std::copy(rows.begin() + static_cast<std::ptrdiff_t>(k * n_cols * bands),
                rows.begin() +
                    static_cast<std::ptrdiff_t>((k + 1) * n_cols * bands),
                dst.data());
    }
  }
}

std::vector<MorphRep> MorphWorker::top_candidates() const {
  std::vector<MorphRep> all;
  const std::vector<double>& mei = engine_.mei();
  const std::size_t n_cols = cols();
  for (std::size_t x = 0; x < block_rows(); ++x) {
    if (!is_owned(x)) continue;
    for (std::size_t y = 0; y < n_cols; ++y) {
      const auto px = cube_.pixel(block_begin_ + x, y);
      all.push_back(MorphRep{{block_begin_ + x, y},
                             std::vector<float>(px.begin(), px.end()),
                             mei[x * n_cols + y]});
    }
  }
  const std::size_t keep = std::min(config_.classes, all.size());
  std::partial_sort(all.begin(),
                    all.begin() + static_cast<std::ptrdiff_t>(keep), all.end(),
                    [](const MorphRep& a, const MorphRep& b) {
                      if (a.mei != b.mei) return a.mei > b.mei;
                      if (a.loc.row != b.loc.row) return a.loc.row < b.loc.row;
                      return a.loc.col < b.loc.col;
                    });
  all.resize(keep);
  return all;
}

// --- per-chunk kernels and root-side folds -----------------------------

/// Step 2 + candidate selection for one partition: runs all I_max
/// morphology iterations (charging each pass) and returns the c
/// highest-MEI owned pixels.  In overlap-border mode the result depends on
/// the chunk alone; halo-exchange mode (overlap_borders = false) refreshes
/// the borders from the neighbouring ranks before every later iteration,
/// which only the collective driver supports (run_morph refuses it
/// fault-tolerant).
std::vector<MorphRep> morph_candidates(vmpi::Comm& comm,
                                       const hsi::HsiCube& cube,
                                       const RowPartition& part,
                                       const MorphConfig& config) {
  MorphWorker worker(cube, part, config);
  for (std::size_t j = 1; j <= config.iterations; ++j) {
    if (!config.overlap_borders && j > 1) {
      worker.exchange_halo(comm, config.kernel_radius);
    }
    const SplitFlops flops = worker.iterate(j == config.iterations);
    comm.compute(flops.charge(config.replication));
  }
  return worker.top_candidates();
}

/// Step 3 (master): merges the per-partition candidate sets, highest-MEI
/// first, into at most c unique representatives.  Charges the
/// consolidation SADs.
std::vector<MorphRep> merge_unique_sets(
    vmpi::Comm& comm, std::vector<std::vector<MorphRep>> rep_sets,
    const MorphConfig& config, std::size_t bands) {
  std::vector<detail::SpectralCandidate> pool;
  for (auto& set : rep_sets) {
    for (auto& rep : set) {
      pool.push_back(detail::SpectralCandidate{
          rep.loc, std::move(rep.spectrum), rep.mei});
    }
  }
  // Highest-MEI first so cluster exemplars are the purest pixels.
  std::stable_sort(pool.begin(), pool.end(),
                   [](const detail::SpectralCandidate& a,
                      const detail::SpectralCandidate& b) {
                     if (a.weight != b.weight) return a.weight > b.weight;
                     if (a.loc.row != b.loc.row)
                       return a.loc.row < b.loc.row;
                     return a.loc.col < b.loc.col;
                   });
  const auto selection = detail::consolidate_unique_set(
      pool, config.classes, config.sad_threshold);
  std::vector<MorphRep> unique;
  for (const std::size_t idx : selection.chosen) {
    unique.push_back(MorphRep{pool[idx].loc,
                              std::move(pool[idx].spectrum),
                              pool[idx].weight});
  }
  comm.compute(selection.sad_evals * hsi::flops::sad(bands),
               vmpi::Phase::kSequential);
  return unique;
}

/// Step 4: labels rows [row_begin, row_end) by minimum SAD against the
/// unique set.  Returns the block and the flop count for the caller to
/// charge.
struct LabelOut {
  LabelBlock block;
  Count flops = 0;
};

LabelOut label_partition(const hsi::HsiCube& cube, std::size_t row_begin,
                         std::size_t row_end,
                         const std::vector<MorphRep>& unique) {
  const std::size_t bands = cube.bands();
  const std::size_t cols = cube.cols();
  const std::size_t reps = unique.size();
  LabelOut out;
  out.block.row_begin = row_begin;
  out.block.row_end = row_end;
  out.block.labels.reserve((row_end - row_begin) * cols);
  // Representative norms hoisted out of the pixel loop (fast path); with
  // the pixel norm computed once per pixel this removes two of the three
  // dot products per SAD.  The charge stays the full sad() cost: the
  // virtual model prices the algorithm, not the host shortcuts.
  const bool fast = !linalg::use_reference_kernels();
  std::vector<double> rep_norms(reps);
  if (fast) {
    for (std::size_t u = 0; u < reps; ++u) {
      rep_norms[u] = linalg::norm<float>(unique[u].spectrum);
    }
  }
  for (std::size_t r = row_begin; r < row_end; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const auto px = cube.pixel(r, c);
      const double px_norm = fast ? linalg::norm(px) : 0.0;
      std::uint16_t best = 0;
      double best_d = std::numeric_limits<double>::infinity();
      for (std::size_t u = 0; u < reps; ++u) {
        const double dist =
            fast ? hsi::sad_with_norms<float, float>(
                       unique[u].spectrum, px, rep_norms[u], px_norm)
                 : hsi::sad<float, float>(unique[u].spectrum, px);
        if (dist < best_d) {
          best_d = dist;
          best = static_cast<std::uint16_t>(u);
        }
      }
      out.block.labels.push_back(best);
      out.flops += reps * hsi::flops::sad(bands);
    }
  }
  return out;
}

/// Step 5 (master): assembles the label image from the disjoint blocks.
void assemble_label_image(vmpi::Comm& comm,
                          const std::vector<LabelBlock>& blocks,
                          const hsi::HsiCube& cube, std::size_t reps,
                          ClassificationResult& result) {
  result.labels.assign(cube.pixel_count(), 0);
  for (const auto& blk : blocks) {
    std::copy(blk.labels.begin(), blk.labels.end(),
              result.labels.begin() +
                  static_cast<std::ptrdiff_t>(blk.row_begin * cube.cols()));
  }
  result.label_count = std::max<std::size_t>(1, reps);
  comm.compute(cube.pixel_count() / 8, vmpi::Phase::kSequential);
}

}  // namespace

/// Paper Alg. 5 as one Program (core/ft.hpp): morphology + candidate
/// selection and labeling are the phase handlers; the root merges the
/// candidates in chunk (== rank) order and assembles the label image.
/// Chunks carry their own overlap borders (one structuring-element radius
/// per side, the companion JPDC'06 paper's sizing), so a re-run on an
/// adopting rank reproduces the lost candidates bit for bit.
ft::Program morph_ft_program(const hsi::HsiCube& cube,
                             const MorphConfig& config,
                             ClassificationResult& result) {
  HPRS_REQUIRE(!cube.empty(), "empty cube");
  HPRS_REQUIRE(config.classes >= 1, "classes = 0: need at least one class");
  HPRS_REQUIRE(config.iterations >= 1,
               "iterations = 0: need at least one iteration");
  HPRS_REQUIRE(config.kernel_radius >= 1,
               "kernel_radius = 0: the structuring element needs a radius "
               ">= 1");
  HPRS_REQUIRE(!config.fault_tolerant || config.overlap_borders,
               "fault-tolerant MORPH requires overlap borders: the "
               "halo-exchange mode needs worker-to-worker traffic the "
               "master/worker protocol excludes");
  ft::Program prog;
  prog.model = morph_workload(cube.bands(), config);
  prog.model.scatter_input = config.charge_data_staging;
  prog.policy = config.policy;
  prog.memory_fraction = config.memory_fraction;
  prog.overlap = config.kernel_radius;
  prog.replication = config.replication;
  // Phase 0: morphology + candidate selection on the chunk.
  prog.handlers.push_back(
      [&cube, config](vmpi::Comm& c, const ft::Chunk& chunk, const std::any*) {
        std::vector<MorphRep> local =
            morph_candidates(c, cube, chunk.part, config);
        const std::size_t count = local.size();
        return ft::ChunkOutcome{std::move(local),
                                rep_bytes(cube.bands(), count)};
      });
  // Phase 1: label the chunk against the shipped unique set.
  prog.handlers.push_back(
      [&cube, config](vmpi::Comm& c, const ft::Chunk& chunk,
                      const std::any* payload) {
        const auto& unique =
            std::any_cast<const std::vector<MorphRep>&>(*payload);
        LabelOut out = label_partition(cube, chunk.part.row_begin,
                                       chunk.part.row_end, unique);
        c.compute(out.flops * config.replication);
        const std::size_t bytes = out.block.labels.size() *
                                  sizeof(std::uint16_t) * config.replication;
        return ft::ChunkOutcome{std::move(out.block), bytes};
      });

  prog.master = [&cube, config, &result](vmpi::Comm& comm,
                                         ft::PhaseDriver& driver,
                                         const std::vector<ft::Handler>& h) {
    const bool root = comm.is_root();
    const std::size_t bands = cube.bands();

    // Steps 2-3: candidates, merged at the root.
    auto rep_sets =
        ft::results_as<std::vector<MorphRep>>(driver.phase(0, h[0]));
    std::vector<MorphRep> unique;
    if (root) {
      unique = merge_unique_sets(comm, std::move(rep_sets), config, bands);
    }
    const std::size_t reps = unique.size();
    const std::size_t unique_bytes = rep_bytes(bands, reps);

    // Steps 4-5: labeling against the shipped unique set.
    const auto blocks = ft::results_as<LabelBlock>(driver.phase(
        1, h[1], std::make_shared<const std::any>(std::move(unique)),
        unique_bytes));
    driver.finish();
    if (root) assemble_label_image(comm, blocks, cube, reps, result);
  };
  return prog;
}

WorkloadModel morph_workload(std::size_t bands, const MorphConfig& config) {
  const std::size_t w = 2 * config.kernel_radius + 1;
  const Count per_iter =
      (w * w + 1) * hsi::flops::sad(bands) + 2 * w * w;
  const Count label = config.classes * hsi::flops::sad(bands);
  WorkloadModel model;
  model.flops_per_pixel =
      static_cast<double>(per_iter * config.iterations + label);
  model.bytes_per_pixel = bands * sizeof(float);
  model.scatter_input = false;
  // One synchronized block: the morphology runs locally; only the
  // candidate gather and label pass re-synchronize.
  model.sync_rounds = 2.0;
  return model;
}

ClassificationResult run_morph(const simnet::Platform& platform,
                               const hsi::HsiCube& cube,
                               const MorphConfig& config,
                               vmpi::Options options) {
  ClassificationResult result;
  result.report =
      ft::run_on_engine(platform, cube, morph_ft_program(cube, config, result),
                        config.fault_tolerant, options);
  return result;
}

}  // namespace hprs::core
