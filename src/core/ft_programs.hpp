// The algorithms, one ft::Program each.
//
// Each factory is the only definition of its algorithm (core/ft.hpp): the
// phase handlers, the control flow with its root-side folds, and the WEA
// workload model.  ft::CollectiveDriver runs it as the paper's SPMD
// schedule, recovering in place from non-root crashes (run_algorithm and
// the scheduler's gangs); the cluster resilience layer (src/sched/
// resilience) wraps that driver in a checkpointing PhaseDriver.
// core::make_program is the one caller: it checks the cube and sets the
// fields every Program shares (staging, policy, memory fraction,
// replication), and each factory validates its algorithm's parameters,
// throwing hprs::Error that names the offending field, so every path that
// builds a Program -- run_algorithm, the gang runtime, admission -- runs
// the same checks.  The closures capture `cube` and `result` by reference
// and the config by value, so the returned Program must not outlive
// either argument; only the root's `result` is populated.
//
// The handlers are stateless (they only read the captured cube/config), so
// one Program instance may be shared by every rank of an engine run, in
// both executor modes.
#pragma once

#include "core/ft.hpp"
#include "core/runner.hpp"

namespace hprs::core {

[[nodiscard]] ft::Program atdca_ft_program(const hsi::HsiCube& cube,
                                           const RunnerConfig& config,
                                           AlgorithmOutput& result);

[[nodiscard]] ft::Program ufcls_ft_program(const hsi::HsiCube& cube,
                                           const RunnerConfig& config,
                                           AlgorithmOutput& result);

[[nodiscard]] ft::Program pct_ft_program(const hsi::HsiCube& cube,
                                         const RunnerConfig& config,
                                         AlgorithmOutput& result);

/// Only overlap-border mode is recoverable: its chunks carry their own halo
/// rows, so a re-run on an adopting rank needs no neighbour exchange.
[[nodiscard]] ft::Program morph_ft_program(const hsi::HsiCube& cube,
                                           const RunnerConfig& config,
                                           AlgorithmOutput& result);

[[nodiscard]] ft::Program ppi_ft_program(const hsi::HsiCube& cube,
                                         const RunnerConfig& config,
                                         AlgorithmOutput& result);

}  // namespace hprs::core
