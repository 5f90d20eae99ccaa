// WEA-backed job cost model: makespan estimates and memory-bound admission.
//
// The estimate reuses the exact per-pixel flop/byte accounting the
// algorithms charge to the engine (core::*_workload) and the platform's
// WEA parameters (w_i seconds/Mflop, c_ij ms/Mbit): compute time is the
// balanced divisible-load bound total_flops * 1e-6 / sum(1/w_i), and
// communication adds the serial root-link cost of the per-round candidate
// gathers plus (when the job charges data staging) the one-time block
// distribution.  It is an *ordering heuristic* -- placement and backfill
// decisions use it, the engine remains the source of truth for actual
// times -- but it is deterministic, which is what the scheduler needs:
// identical streams yield identical estimates, hence identical schedules.
#pragma once

#include <vector>

#include "common/error.hpp"
#include "hsi/cube.hpp"
#include "sched/job.hpp"
#include "simnet/platform.hpp"

namespace hprs::sched {

/// Thrown by admission when a job cannot run on any subset of the worker
/// pool (a parameter its algorithm rejects, image larger than the best
/// subset's aggregate memory budget, gang wider than the pool, or fewer
/// image rows than ranks).
class AdmissionError : public Error {
 public:
  explicit AdmissionError(const std::string& what) : Error(what) {}
};

struct JobEstimate {
  /// Estimated virtual makespan of the job on the given members, seconds.
  double seconds = 0.0;
  /// Total image bytes the gang must hold (the admission numerator).
  double image_bytes = 0.0;
};

/// The workload model the job's algorithm will charge: its Program's model
/// (core::make_program), so estimates and engine accounting share one
/// source.
[[nodiscard]] core::WorkloadModel job_workload(const JobSpec& spec,
                                               const hsi::HsiCube& scene);

/// Estimated makespan of `spec` gang-placed on `members` (engine ranks into
/// `platform`; members[0] is the gang leader).  `speed_scale`, when
/// non-null, multiplies each rank's platform speed (the resilient
/// scheduler's online w_i re-estimation from measured gang spans); the
/// default null keeps historic estimates bit-identical.
[[nodiscard]] JobEstimate estimate_job(
    const simnet::Platform& platform, const std::vector<int>& members,
    const JobSpec& spec, const hsi::HsiCube& scene,
    const std::vector<double>* speed_scale = nullptr);

/// Accelerator-aware member refinement: when `picked` contains accelerated
/// ranks, compares its estimate against the fastest equally-wide all-CPU
/// gang from `pool` and returns whichever is cheaper (tiny jobs dodge the
/// per-round launch latency; big jobs keep the accelerators).  Identity
/// when `picked` has no accelerated member, so accelerator-free platforms
/// schedule exactly as before.
[[nodiscard]] std::vector<int> refine_members(const simnet::Platform& platform,
                                              const std::vector<int>& pool,
                                              std::vector<int> picked,
                                              const JobSpec& spec,
                                              const hsi::HsiCube& scene);

/// Admission: throws AdmissionError unless the request's parameters pass
/// its algorithm's checks (the message names the field), and (WEA
/// Algorithm 1 step 3 applied at submission) some `spec.ranks`-wide subset
/// of `workers` can hold the scene within `spec.memory_fraction` of each
/// node's memory and the scene has at least one row per rank.
void check_admission(const simnet::Platform& platform,
                     const std::vector<int>& workers, const JobSpec& spec,
                     const hsi::HsiCube& scene);

}  // namespace hprs::sched
