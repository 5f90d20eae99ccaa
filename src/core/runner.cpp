#include "core/runner.hpp"

#include <utility>

#include "common/error.hpp"
#include "core/ft_programs.hpp"
#include "obs/host_profile.hpp"
#include "obs/metrics.hpp"

namespace hprs::core {

namespace {

constexpr Algorithm kAlgorithms[] = {Algorithm::kAtdca, Algorithm::kUfcls,
                                     Algorithm::kPct, Algorithm::kMorph,
                                     Algorithm::kPpi};

/// The RunnerConfig -> per-algorithm config mapping: copies every field the
/// config has a counterpart for.
template <typename Config>
[[nodiscard]] Config algorithm_config(const RunnerConfig& rc) {
  Config c;
  c.policy = rc.policy;
  c.memory_fraction = rc.memory_fraction;
  c.replication = rc.replication;
  c.charge_data_staging = rc.charge_data_staging;
  c.fault_tolerant = rc.fault_tolerant;
  if constexpr (requires { c.targets; }) c.targets = rc.targets;
  if constexpr (requires { c.classes; }) c.classes = rc.classes;
  if constexpr (requires { c.iterations; }) {
    c.iterations = rc.morph_iterations;
  }
  if constexpr (requires { c.kernel_radius; }) {
    c.kernel_radius = rc.kernel_radius;
  }
  if constexpr (requires { c.overlap_borders; }) {
    c.overlap_borders = rc.morph_overlap_borders;
  }
  if constexpr (requires { c.skewers; }) c.skewers = rc.skewers;
  if constexpr (requires { c.seed; }) c.seed = rc.seed;
  if constexpr (requires { c.sad_threshold; }) {
    c.sad_threshold = rc.sad_threshold;
  }
  if constexpr (requires { c.tile_rows; }) c.tile_rows = rc.tile_rows;
  if constexpr (requires { c.tile_stream; }) c.tile_stream = rc.tile_stream;
  return c;
}

}  // namespace

const char* to_string(Algorithm a) {
  switch (a) {
    case Algorithm::kAtdca: return "ATDCA";
    case Algorithm::kUfcls: return "UFCLS";
    case Algorithm::kPct: return "PCT";
    case Algorithm::kMorph: return "MORPH";
    case Algorithm::kPpi: return "PPI";
  }
  return "?";
}

Algorithm parse_algorithm(std::string_view name) {
  for (const Algorithm a : kAlgorithms) {
    if (name == to_string(a)) return a;
  }
  throw Error("unknown algorithm '" + std::string(name) +
              "' (expected ATDCA, UFCLS, PCT, MORPH, or PPI)");
}

std::string display_name(Algorithm a, PartitionPolicy policy) {
  const char* prefix =
      policy == PartitionPolicy::kHeterogeneous ? "Hetero-" : "Homo-";
  return std::string(prefix) + to_string(a);
}

AlgorithmOutput AlgorithmProgram::harvest() {
  AlgorithmOutput out;
  std::visit(
      [&out](auto& r) {
        if constexpr (requires { r.targets; }) {
          out.targets = std::move(r.targets);
        }
        if constexpr (requires { r.scores; }) out.scores = std::move(r.scores);
        if constexpr (requires { r.labels; }) {
          out.labels = std::move(r.labels);
          out.label_count = r.label_count;
        }
      },
      *result);
  return out;
}

AlgorithmProgram make_program(const RunnerConfig& config,
                              const hsi::HsiCube& cube) {
  AlgorithmProgram built;
  built.result = std::make_shared<AlgorithmProgram::Result>();
  auto& result = *built.result;
  switch (config.algorithm) {
    case Algorithm::kAtdca:
      built.program = atdca_ft_program(
          cube, algorithm_config<AtdcaConfig>(config),
          result.emplace<TargetDetectionResult>());
      break;
    case Algorithm::kUfcls:
      built.program = ufcls_ft_program(
          cube, algorithm_config<UfclsConfig>(config),
          result.emplace<TargetDetectionResult>());
      break;
    case Algorithm::kPct:
      built.program =
          pct_ft_program(cube, algorithm_config<PctConfig>(config),
                         result.emplace<ClassificationResult>());
      break;
    case Algorithm::kMorph:
      built.program =
          morph_ft_program(cube, algorithm_config<MorphConfig>(config),
                           result.emplace<ClassificationResult>());
      break;
    case Algorithm::kPpi:
      built.program = ppi_ft_program(cube, algorithm_config<PpiConfig>(config),
                                     result.emplace<PpiResult>());
      break;
  }
  return built;
}

RunnerOutput run_algorithm(const simnet::Platform& platform,
                           const hsi::HsiCube& cube,
                           const RunnerConfig& config, vmpi::Options options) {
  obs::Metrics::instance().add(std::string("core.runs.") +
                               to_string(config.algorithm), 1);
  obs::ScopedHostTimer timer(std::string("core.run.") +
                             to_string(config.algorithm));
  AlgorithmProgram built = make_program(config, cube);
  RunnerOutput out;
  out.report = ft::run_on_engine(platform, cube, built.program,
                                 config.fault_tolerant, options);
  static_cast<AlgorithmOutput&>(out) = built.harvest();
  return out;
}

}  // namespace hprs::core
