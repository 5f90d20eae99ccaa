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

AlgorithmOutput AlgorithmProgram::harvest() { return std::move(*result); }

AlgorithmProgram make_program(const RunnerConfig& config,
                              const hsi::HsiCube& cube) {
  HPRS_REQUIRE(!cube.empty(), "empty cube");
  AlgorithmProgram built;
  built.result = std::make_unique<AlgorithmOutput>();
  ft::Program& prog = built.program;
  switch (config.algorithm) {
    case Algorithm::kAtdca:
      prog = atdca_ft_program(cube, config, *built.result);
      break;
    case Algorithm::kUfcls:
      prog = ufcls_ft_program(cube, config, *built.result);
      break;
    case Algorithm::kPct:
      prog = pct_ft_program(cube, config, *built.result);
      break;
    case Algorithm::kMorph:
      prog = morph_ft_program(cube, config, *built.result);
      break;
    case Algorithm::kPpi:
      prog = ppi_ft_program(cube, config, *built.result);
      break;
  }
  prog.model.scatter_input = config.charge_data_staging;
  prog.policy = config.policy;
  prog.memory_fraction = config.memory_fraction;
  prog.replication = config.replication;
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
  out.report = ft::run_on_engine(platform, cube, built.program, options);
  static_cast<AlgorithmOutput&>(out) = built.harvest();
  return out;
}

}  // namespace hprs::core
