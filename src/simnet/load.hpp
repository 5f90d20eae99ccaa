// Background load modeling.
//
// The paper's introduction motivates heterogeneous platforms built from
// "local (user) computing resources" -- workstations whose owners also use
// them, so the *effective* speed of a node varies over time.  This module
// models a load snapshot: per-processor background utilization in [0, 1)
// that stretches the effective cycle-time by 1/(1 - load), plus a
// deterministic generator of load sequences ("epochs") for adaptivity
// experiments (bench_ablation_dynamic): a static partitioning computed for
// yesterday's load meets today's, while an adaptive WEA re-partitions per
// epoch.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "simnet/platform.hpp"

namespace hprs::simnet {

/// Applies a background-load snapshot: processor i's cycle-time becomes
/// w_i / (1 - load[i]).  Loads must lie in [0, 1).
[[nodiscard]] Platform with_background_load(const Platform& platform,
                                            std::span<const double> load);

/// Deterministic sequence of load snapshots: `epochs` vectors of per-node
/// utilization drawn uniformly from [0, max_load], seeded.
[[nodiscard]] std::vector<std::vector<double>> load_epochs(
    std::size_t nodes, std::size_t epochs, double max_load,
    std::uint64_t seed);

}  // namespace hprs::simnet
