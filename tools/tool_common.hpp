// Helpers shared by the scheduler-driving tools (top_run, trace_run): each
// flag both tools accept is parsed here, once, so neither tool can parse a
// flag and then drop it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "hsi/scene.hpp"
#include "sched/scheduler.hpp"
#include "simnet/platform.hpp"
#include "vmpi/engine.hpp"

namespace hprs::tools {

/// The --network names both tools accept; false for an unknown name.
inline bool make_platform(const std::string& name, std::size_t cpus,
                          std::size_t accels, simnet::Platform& out) {
  if (name == "fully-heterogeneous") {
    out = simnet::fully_heterogeneous();
  } else if (name == "fully-homogeneous") {
    out = simnet::fully_homogeneous();
  } else if (name == "partially-heterogeneous") {
    out = simnet::partially_heterogeneous();
  } else if (name == "partially-homogeneous") {
    out = simnet::partially_homogeneous();
  } else if (name == "thunderhead") {
    out = simnet::thunderhead(cpus);
  } else if (name == "accelerated-now") {
    out = simnet::accelerated_now(cpus, accels);
  } else {
    return false;
  }
  return true;
}

/// The synthetic WTC scene of --rows, --cols, --bands and --seed.
inline hsi::Scene make_scene(const CliArgs& args) {
  hsi::SceneConfig config;
  config.rows = static_cast<std::size_t>(args.get_int("rows", 96));
  config.cols = static_cast<std::size_t>(args.get_int("cols", 96));
  config.bands = static_cast<std::size_t>(args.get_int("bands", 224));
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 20010916));
  return hsi::generate_wtc_scene(config);
}

/// The scheduler config of --policy, --resilient and --checkpoint; the
/// fail-stop crashes of --crash <rank>@<t>[,...] go into `options`.
inline sched::SchedulerConfig make_sched_config(const CliArgs& args,
                                                vmpi::Options& options) {
  sched::SchedulerConfig config;
  config.policy = sched::parse_policy(args.get("policy", "hetero"));
  if (args.get_bool("resilient", false)) {
    config.resilience.enabled = true;
    config.resilience.checkpoint_interval_s =
        args.get_double("checkpoint", 0.01);
  }
  const std::string crashes = args.get("crash", "");
  if (!crashes.empty()) {
    options.fault_plan.crashes = vmpi::parse_crashes(crashes);
  }
  return config;
}

/// The round-robin job stream: `jobs` analyses cycling ATDCA, PCT, PPI,
/// UFCLS and MORPH, one every `gap_s` virtual seconds, gang widths cycling
/// 2..4 (clipped to `pool` workers), with --targets, --classes, --iters,
/// --radius and --replication.
inline std::vector<sched::JobSpec> round_robin_stream(const CliArgs& args,
                                                      std::size_t jobs,
                                                      double gap_s, int pool) {
  constexpr core::Algorithm kCycle[] = {
      core::Algorithm::kAtdca, core::Algorithm::kPct, core::Algorithm::kPpi,
      core::Algorithm::kUfcls, core::Algorithm::kMorph};
  std::vector<sched::JobSpec> stream;
  for (std::size_t k = 0; k < jobs; ++k) {
    sched::JobSpec spec;
    spec.id = k + 1;
    spec.algorithm = kCycle[k % 5];
    spec.arrival_s = gap_s * static_cast<double>(k);
    spec.ranks = std::min(pool, 2 + static_cast<int>(k % 3));
    spec.targets = static_cast<std::size_t>(args.get_int("targets", 8));
    spec.classes = static_cast<std::size_t>(args.get_int("classes", 5));
    spec.morph_iterations = static_cast<std::size_t>(args.get_int("iters", 2));
    spec.kernel_radius = static_cast<std::size_t>(args.get_int("radius", 1));
    spec.replication =
        static_cast<std::size_t>(args.get_int("replication", 8));
    stream.push_back(spec);
  }
  return stream;
}

/// One "lost ranks:" line when the schedule lost workers to crashes.
inline void print_lost_ranks(const sched::ScheduleResult& result) {
  if (result.lost_ranks.empty()) return;
  std::string lost;
  for (const int r : result.lost_ranks) {
    if (!lost.empty()) lost += ",";
    lost += std::to_string(r);
  }
  std::printf("lost ranks: %s (%zu degraded, %zu failed)\n", lost.c_str(),
              result.degraded(), result.failed());
}

}  // namespace hprs::tools
