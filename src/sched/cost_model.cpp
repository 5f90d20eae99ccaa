#include "sched/cost_model.hpp"

#include <algorithm>
#include <string>

#include "core/atdca.hpp"
#include "core/morph.hpp"
#include "core/pct.hpp"
#include "core/ppi.hpp"
#include "core/ufcls.hpp"

namespace hprs::sched {
namespace {

/// Wire bytes of one per-member candidate message in the iterative gathers
/// (a Candidate is ~24 bytes; the constant only scales the communication
/// term of the estimate, so a common round number is fine).
constexpr double kRoundMsgBytes = 24.0;

}  // namespace

core::WorkloadModel job_workload(const JobSpec& spec,
                                 const hsi::HsiCube& scene) {
  core::WorkloadModel model;
  switch (spec.algorithm) {
    case JobAlgorithm::kAtdca:
      model = core::atdca_workload(scene.bands(), spec.targets);
      break;
    case JobAlgorithm::kUfcls:
      model = core::ufcls_workload(scene.bands(), spec.targets);
      break;
    case JobAlgorithm::kPct:
      model = core::pct_workload(scene.bands(), spec.classes);
      break;
    case JobAlgorithm::kMorph: {
      core::MorphConfig config;
      config.classes = spec.classes;
      config.iterations = spec.iterations;
      config.kernel_radius = spec.kernel_radius;
      model = core::morph_workload(scene.bands(), config);
      break;
    }
    case JobAlgorithm::kPpi:
      model = core::ppi_workload(scene.bands(), spec.skewers);
      break;
  }
  model.scatter_input = spec.charge_data_staging;
  return model;
}

JobEstimate estimate_job(const simnet::Platform& platform,
                         const std::vector<int>& members, const JobSpec& spec,
                         const hsi::HsiCube& scene,
                         const std::vector<double>* speed_scale) {
  HPRS_REQUIRE(!members.empty(), "estimate over an empty member list");
  const core::WorkloadModel model = job_workload(spec, scene);
  const double pixels = static_cast<double>(scene.pixel_count()) *
                        static_cast<double>(spec.replication);

  // Observed speed of rank m: the platform speed times the online
  // re-estimation scale (identity without one, keeping historic estimates
  // bit-identical).
  const auto speed_of = [&platform, speed_scale](std::size_t m) {
    const double s = platform.speed(m);
    return speed_scale == nullptr ? s : s * (*speed_scale)[m];
  };

  // Balanced divisible-load compute bound: every member finishes its WEA
  // share of total_flops simultaneously at total * 1e-6 / sum(1/w_i).
  double speed_sum = 0.0;
  bool any_accel = false;
  for (int m : members) {
    speed_sum += speed_of(static_cast<std::size_t>(m));
    any_accel |= platform.accelerated(static_cast<std::size_t>(m));
  }
  const double total_mflops = model.flops_per_pixel * pixels * 1e-6;
  const double image_bytes =
      static_cast<double>(scene.pixel_count()) *
      static_cast<double>(scene.bytes_per_pixel()) *
      static_cast<double>(spec.replication);
  double compute_s;
  // Per-member fraction of the image (used by the scatter-staging term
  // below): speed share classically, staging-aware share with accelerators.
  std::vector<double> share(members.size());
  if (!any_accel) {
    // Accelerator-free gangs keep the historic arithmetic verbatim, so
    // every pre-existing schedule and golden estimate is bit-identical.
    compute_s = total_mflops / speed_sum;
    for (std::size_t i = 0; i < members.size(); ++i) {
      share[i] = speed_of(static_cast<std::size_t>(members[i])) / speed_sum;
    }
  } else {
    // Staging-aware divisible-load bound.  Member i running fraction a_i of
    // the job takes a_i * D_i + R * L_i seconds, where
    //   D_i = total_mflops * w_i + (host<->device copy of its image share)
    //   L_i = per-invocation launch latency (one per synchronized round)
    //   R   = sync_rounds.
    // Equal finish times and sum(a_i) = 1 give the closed form
    //   T = (1 + R * sum(L_i / D_i)) / sum(1 / D_i).
    const double rounds = std::max(1.0, model.sync_rounds);
    double sum_inv_d = 0.0;
    double sum_l_over_d = 0.0;
    std::vector<double> d(members.size());
    for (std::size_t i = 0; i < members.size(); ++i) {
      const auto m = static_cast<std::size_t>(members[i]);
      const auto& p = platform.processor(m);
      const double cycle =
          speed_scale == nullptr ? p.cycle_time
                                 : p.cycle_time / (*speed_scale)[m];
      const double work = total_mflops * cycle;
      const double staging =
          image_bytes * 8e-6 * p.stage_ms_per_mbit * 1e-3;
      d[i] = work + staging;
      sum_inv_d += 1.0 / d[i];
      sum_l_over_d += (p.stage_latency_ms * 1e-3) / d[i];
    }
    compute_s = (1.0 + rounds * sum_l_over_d) / sum_inv_d;
    for (std::size_t i = 0; i < members.size(); ++i) {
      const auto m = static_cast<std::size_t>(members[i]);
      const double a =
          (compute_s -
           rounds * platform.processor(m).stage_latency_ms * 1e-3) /
          d[i];
      share[i] = std::max(0.0, a);
    }
  }

  // Serial leader section (e.g. PCT's eigensolve): every member waits while
  // the gang leader grinds through it at its own speed.
  const auto leader = static_cast<std::size_t>(members.front());
  compute_s += model.seq_flops * 1e-6 / speed_of(leader);

  // Serial root-link communication: each synchronized round gathers one
  // candidate message per non-leader member over the leader's links.
  double round_ms = 0.0;
  for (std::size_t i = 1; i < members.size(); ++i) {
    const auto m = static_cast<std::size_t>(members[i]);
    round_ms += kRoundMsgBytes * 8e-6 * platform.link_ms_per_mbit(leader, m);
  }
  double comm_s = model.sync_rounds * round_ms * 1e-3;

  // One-time block staging when the job charges data distribution: the
  // leader ships each member its WEA share of the image serially.
  if (model.scatter_input && members.size() > 1) {
    double staging_ms = 0.0;
    for (std::size_t i = 1; i < members.size(); ++i) {
      const auto m = static_cast<std::size_t>(members[i]);
      staging_ms += image_bytes * share[i] * 8e-6 *
                    platform.link_ms_per_mbit(leader, m);
    }
    comm_s += staging_ms * 1e-3;
  }

  return JobEstimate{compute_s + comm_s, image_bytes};
}

std::vector<int> refine_members(const simnet::Platform& platform,
                                const std::vector<int>& pool,
                                std::vector<int> picked, const JobSpec& spec,
                                const hsi::HsiCube& scene) {
  if (picked.empty()) return picked;
  const bool picked_accel =
      std::any_of(picked.begin(), picked.end(), [&](int m) {
        return platform.accelerated(static_cast<std::size_t>(m));
      });
  // Identity on accelerator-free picks (hence on accelerator-free
  // platforms): historic schedules are untouched.
  if (!picked_accel) return picked;

  // Candidate alternative: the fastest equally-wide all-CPU gang from the
  // pool, built with the same (cycle-time, rank) order the best-fit policy
  // uses.  For tiny jobs the accelerators' per-round launch latency
  // dominates their compute advantage, and the CPU gang wins the estimate.
  std::vector<int> cpus;
  for (int r : pool) {
    if (!platform.accelerated(static_cast<std::size_t>(r))) cpus.push_back(r);
  }
  if (cpus.size() < picked.size()) return picked;
  std::sort(cpus.begin(), cpus.end(), [&](int a, int b) {
    const double wa = platform.cycle_time(static_cast<std::size_t>(a));
    const double wb = platform.cycle_time(static_cast<std::size_t>(b));
    if (wa != wb) return wa < wb;
    return a < b;
  });
  cpus.resize(picked.size());
  std::sort(cpus.begin(), cpus.end());

  const double with_accel =
      estimate_job(platform, picked, spec, scene).seconds;
  const double cpu_only = estimate_job(platform, cpus, spec, scene).seconds;
  return cpu_only < with_accel ? cpus : picked;
}

void check_admission(const simnet::Platform& platform,
                     const std::vector<int>& workers, const JobSpec& spec,
                     const hsi::HsiCube& scene) {
  const std::string label = "job " + std::to_string(spec.id) + " (" +
                            to_string(spec.algorithm) + ")";
  if (spec.ranks < 1) {
    throw AdmissionError(label + " requests a gang of " +
                         std::to_string(spec.ranks) +
                         " ranks; the width must be at least 1");
  }
  const auto width = static_cast<std::size_t>(spec.ranks);
  if (width > workers.size()) {
    throw AdmissionError(label + " requests " + std::to_string(spec.ranks) +
                         " ranks but the worker pool has only " +
                         std::to_string(workers.size()));
  }
  if (scene.rows() < width) {
    throw AdmissionError(label + " needs at least one image row per rank: " +
                         std::to_string(scene.rows()) + " rows < " +
                         std::to_string(spec.ranks) + " ranks");
  }

  // Best-case memory bound: even the roomiest `width`-wide subset must hold
  // the scene within memory_fraction of each node (wea_partition enforces
  // the same aggregate bound at dispatch time).
  std::vector<double> budgets;
  budgets.reserve(workers.size());
  for (int w : workers) {
    budgets.push_back(
        spec.memory_fraction *
        static_cast<double>(
            platform.processor(static_cast<std::size_t>(w)).memory_mb) *
        1024.0 * 1024.0);
  }
  std::sort(budgets.begin(), budgets.end(), std::greater<>());
  double best = 0.0;
  for (std::size_t i = 0; i < width; ++i) best += budgets[i];
  const double image_bytes = static_cast<double>(scene.pixel_count()) *
                             static_cast<double>(scene.bytes_per_pixel());
  if (image_bytes > best) {
    throw AdmissionError(
        label + " does not fit in memory: the scene needs " +
        std::to_string(image_bytes / (1024.0 * 1024.0)) +
        " MB but the best " + std::to_string(spec.ranks) +
        "-rank subset offers " + std::to_string(best / (1024.0 * 1024.0)) +
        " MB at memory_fraction " + std::to_string(spec.memory_fraction));
  }
}

}  // namespace hprs::sched
