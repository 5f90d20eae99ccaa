// The algorithms, one ft::Program each.
//
// Each factory is the only definition of its algorithm (core/ft.hpp): the
// phase handlers, the control flow with its root-side folds, and the WEA
// parameters.  ft::run_collective runs it as the paper's SPMD schedule
// (the run_* entry points and the scheduler's base gangs);
// ft::run_program runs it fault-tolerant, and the cluster resilience layer
// (src/sched/resilience) drives it through a checkpointing PhaseDriver.
// Each factory also validates its config, throwing hprs::Error that names
// the offending field, so every path that builds a Program -- run_*,
// core::make_program, the gang runtimes, admission -- runs the same checks.
// The closures capture `cube` and `result` by reference and the config by
// value, so the returned Program must not outlive either argument; only
// the root's `result` is populated.
//
// The handlers are stateless (they only read the captured cube/config), so
// one Program instance may be shared by every rank of an engine run, in
// both executor modes.
#pragma once

#include "core/atdca.hpp"
#include "core/ft.hpp"
#include "core/morph.hpp"
#include "core/pct.hpp"
#include "core/ppi.hpp"
#include "core/ufcls.hpp"

namespace hprs::core {

[[nodiscard]] ft::Program atdca_ft_program(const hsi::HsiCube& cube,
                                           const AtdcaConfig& config,
                                           TargetDetectionResult& result);

[[nodiscard]] ft::Program ufcls_ft_program(const hsi::HsiCube& cube,
                                           const UfclsConfig& config,
                                           TargetDetectionResult& result);

[[nodiscard]] ft::Program pct_ft_program(const hsi::HsiCube& cube,
                                         const PctConfig& config,
                                         ClassificationResult& result);

/// The master/worker drivers require config.overlap_borders: their chunks
/// carry their own halo rows, so a re-run on an adopting rank needs no
/// worker-to-worker exchange.
[[nodiscard]] ft::Program morph_ft_program(const hsi::HsiCube& cube,
                                           const MorphConfig& config,
                                           ClassificationResult& result);

[[nodiscard]] ft::Program ppi_ft_program(const hsi::HsiCube& cube,
                                         const PpiConfig& config,
                                         PpiResult& result);

}  // namespace hprs::core
