// Request batching for the scene service: compute once, fan out.
//
// Concurrent requests that run the identical computation over the same
// scene (same algorithm, same parameters, same scene/endmember-library
// identity) waste the cluster re-deriving one result.  The batcher gives
// such requests a shared nonzero batch key; under SchedulerConfig::batching
// the dispatcher then attaches key peers to the first request's gang as
// *riders* -- the gang computes once and every rider receives a copy of
// the leader's output (JobRecord::batched_into / batch_fanout).  Because a
// rider's output is defined as the leader's, and the leader's run is an
// unmodified solo run, batched outputs stay bit-identical to unbatched solo
// runs of the same spec; per-request records keep the attribution (who
// computed, who rode).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sched/job.hpp"

namespace hprs::serve {

/// Shared-work key of `spec` against the scene identity `scene_uid`:
/// FNV-1a over the algorithm, every compute parameter, and the uid.  Gang
/// width, arrival time, id, and tenant are placement/attribution concerns
/// and excluded, so the same question asked by two tenants at two widths
/// still shares a key.  Never returns 0 (0 means "unbatchable" to the
/// scheduler); collisions are harmless because the dispatcher re-checks
/// sched::compute_equivalent before attaching a rider.
[[nodiscard]] std::uint64_t batch_key(const sched::JobSpec& spec,
                                      std::uint64_t scene_uid);

/// Stamps batch keys onto a stream in place: each spec gets
/// batch_key(spec, scene_uid).  Convenience for hand-built streams; traces
/// from generate_trace arrive already stamped.
void stamp_batch_keys(std::vector<sched::JobSpec>& stream,
                      std::uint64_t scene_uid);

/// Post-run accounting of what batching did.
struct BatchStats {
  /// Gangs that actually computed for more than themselves.
  std::size_t leaders = 0;
  /// Requests served by another gang's computation.
  std::size_t riders = 0;
  /// Summed cost-model estimate of the rides: virtual compute seconds the
  /// cluster did not spend re-deriving shared results.
  double saved_est_s = 0.0;
};

/// Scans completion records for rider attribution.
[[nodiscard]] BatchStats summarize_batches(
    const std::vector<sched::JobRecord>& records);

}  // namespace hprs::serve
