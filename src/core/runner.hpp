// One request type for the five parallel algorithms.
//
// Every analysis is one algorithm plus a few parameters (AlgorithmSpec).
// The bench harnesses sweep {algorithm} x {partition policy} x {platform}
// through run_algorithm; the scheduler ships the same spec as a job
// (sched::JobSpec), and the serving plane hashes and serializes it through
// the one field list below.  make_program is the only place a request
// becomes its algorithm's ft::Program, so the parameter checks run on
// every path: the solo runner, both gang runtimes and admission.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/atdca.hpp"
#include "core/ft.hpp"
#include "core/morph.hpp"
#include "core/pct.hpp"
#include "core/ppi.hpp"
#include "core/types.hpp"
#include "core/ufcls.hpp"

namespace hprs::core {

enum class Algorithm : std::uint8_t { kAtdca, kUfcls, kPct, kMorph, kPpi };

[[nodiscard]] const char* to_string(Algorithm a);
/// Inverse of to_string; throws hprs::Error naming the unknown value.
[[nodiscard]] Algorithm parse_algorithm(std::string_view name);

/// Display name in the paper's convention ("Hetero-ATDCA", "Homo-PCT", ...).
[[nodiscard]] std::string display_name(Algorithm a, PartitionPolicy policy);

/// What one analysis computes: the algorithm and the parameters that define
/// its result.  Two equal specs over the same scene run the identical
/// computation (sched::compute_equivalent).  Defaults are the paper's
/// values; PPI, which the paper does not run, defaults to 128 skewers (the
/// scheduler's request size; PpiConfig keeps 512 for run_ppi callers).
struct AlgorithmSpec {
  Algorithm algorithm = Algorithm::kAtdca;
  std::size_t targets = 18;          // ATDCA / UFCLS / PPI
  std::size_t classes = 7;           // PCT / MORPH
  std::size_t morph_iterations = 5;  // MORPH I_max
  std::size_t kernel_radius = 2;     // MORPH structuring element radius
  std::size_t skewers = 128;         // PPI random projections
  std::uint64_t seed = 1;            // PPI skewer draw
  double sad_threshold = 0.06;       // PCT / MORPH unique-set threshold
  std::size_t replication = 1;       // virtual scale (see spmd_common.hpp)
  double memory_fraction = 0.5;
  PartitionPolicy policy = PartitionPolicy::kHeterogeneous;
  bool charge_data_staging = false;  // see DESIGN.md on data staging

  bool operator==(const AlgorithmSpec&) const = default;
};

/// The spec's one field list: calls visit(wire_name, field) for every
/// field, in a fixed order.  serve::batch_key hashes in this order and the
/// trace JSON writer and reader walk it, so a field added to the spec and
/// here is hashed, serialized and compared everywhere at once.
template <typename Spec, typename Visitor>
void for_each_field(Spec& spec, Visitor&& visit) {
  visit("algorithm", spec.algorithm);
  visit("targets", spec.targets);
  visit("classes", spec.classes);
  visit("iterations", spec.morph_iterations);
  visit("kernel_radius", spec.kernel_radius);
  visit("skewers", spec.skewers);
  visit("seed", spec.seed);
  visit("sad_threshold", spec.sad_threshold);
  visit("replication", spec.replication);
  visit("memory_fraction", spec.memory_fraction);
  visit("policy", spec.policy);
  visit("charge_data_staging", spec.charge_data_staging);
}

/// A spec plus how this process runs it: the schedule (fault_tolerant,
/// MORPH's halo strategy) and the tiling (tile_rows, tile_stream).  The
/// scheduler runs every job with these defaults.
struct RunnerConfig : AlgorithmSpec {
  /// MORPH: overlap borders (true) or a per-iteration halo exchange.
  bool morph_overlap_borders = true;
  /// Fault-tolerant master/worker execution (core/ft.hpp): survives
  /// fail-stop worker crashes from Options::fault_plan while producing the
  /// fault-free outputs bit for bit.
  bool fault_tolerant = false;
  /// Rows per tile of the tiled BLAS3 sweeps (ATDCA / PCT); 0 = the
  /// automatic split.  Numerics- and virtual-time-neutral unless
  /// tile_stream is on.
  std::size_t tile_rows = 0;
  /// Per-tile streamed staging overlapped with compute on accelerated
  /// ranks (ATDCA / PCT, collective schedule only).
  bool tile_stream = false;
};

/// Numeric result of one analysis.  Target extractors fill `targets`
/// (+ `scores` for PPI); classifiers fill `labels` / `label_count`.
struct AlgorithmOutput {
  std::vector<PixelLocation> targets;
  std::vector<std::uint32_t> scores;
  std::vector<std::uint16_t> labels;
  std::size_t label_count = 0;
};

struct RunnerOutput : AlgorithmOutput {
  vmpi::RunReport report;
};

/// A request built into its Program.  The Program's closures write the
/// root's result into `*result`, which lives on the heap so this struct can
/// move without leaving them dangling.
struct AlgorithmProgram {
  using Result =
      std::variant<TargetDetectionResult, ClassificationResult, PpiResult>;
  ft::Program program;
  std::shared_ptr<Result> result;

  /// Moves the numeric result out (root side, after a completed run).
  [[nodiscard]] AlgorithmOutput harvest();
};

/// The one factory: `config` -> its algorithm's ft::Program over `cube`.
/// Throws hprs::Error naming the offending field when a parameter is
/// invalid for the algorithm or the cube.  `cube` must outlive the result.
[[nodiscard]] AlgorithmProgram make_program(const RunnerConfig& config,
                                            const hsi::HsiCube& cube);

[[nodiscard]] RunnerOutput run_algorithm(const simnet::Platform& platform,
                                         const hsi::HsiCube& cube,
                                         const RunnerConfig& config,
                                         vmpi::Options options = {});

}  // namespace hprs::core
