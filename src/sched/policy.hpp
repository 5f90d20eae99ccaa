// Pluggable placement policies for the multi-job scheduler.
//
// The policy layer is pure functions over small value types so the
// decision logic is unit-testable without an engine
// (tests/sched_policy_test.cpp): given the ready queue, the free ranks,
// and the running set, a policy deterministically picks the next job to
// dispatch and the exact rank subset to place it on.  Every ordering
// breaks ties on the job id, so equal keys cannot produce run-to-run
// differences.
//
//  * kFifo           -- strict arrival order, first free ranks (lowest
//                       ids); the head of the line blocks the queue.
//  * kSjf            -- shortest estimated makespan first (job-id
//                       tie-break), first free ranks; no backfill.
//  * kHeteroBestFit  -- arrival order with heterogeneity-aware placement
//                       (the fastest free ranks by w_i) and conservative
//                       backfill: when the head does not fit, a later job
//                       may jump ahead only if its estimated finish does
//                       not exceed the head's reservation time, so the
//                       head is never delayed and no job starves.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "simnet/platform.hpp"

namespace hprs::sched {

enum class Policy : std::uint8_t {
  kFifo,
  kSjf,
  kHeteroBestFit,
};

[[nodiscard]] const char* to_string(Policy policy);
[[nodiscard]] Policy parse_policy(std::string_view name);

/// Policy view of a job waiting in the ready queue.
struct PendingJob {
  std::uint64_t id = 0;
  /// Caller-side handle (stream index); opaque to the policy.
  std::size_t index = 0;
  double arrival_s = 0.0;
  double est_seconds = 0.0;
  int width = 1;
  /// Shared-work key (JobSpec::batch_key); 0 = unbatchable.  Opaque to the
  /// policy order; ReadyQueue indexes it for the dispatcher's rider attach.
  std::uint64_t batch_key = 0;
  /// Backoff this entry waited in the retry queue before re-joining
  /// (resilient dispatcher bookkeeping; 0 for first arrivals).
  double backoff_s = 0.0;
};

/// Policy view of a dispatched, not-yet-completed job.
struct RunningJob {
  std::uint64_t id = 0;
  std::size_t index = 0;
  /// dispatch_s + the cost-model estimate on the assigned members: the
  /// deterministic completion horizon policies reason against.
  double est_finish_s = 0.0;
  std::vector<int> members;
  /// Shared-work key of the gang's job (0 = unbatchable).
  std::uint64_t batch_key = 0;
  /// Stream indices of batched riders attached to this gang: requests
  /// whose compute-equivalent result this gang's single run will serve.
  std::vector<std::size_t> riders;
};

/// Indexed ready queue: the dispatcher's pending set, kept permanently in
/// the policy's dispatch-preference order (FIFO/hetero by (arrival, id),
/// SJF by (estimate, id); ids are unique, so the order is total) with
/// O(log n) insert/erase, plus a batch-key index for the rider attach.
class ReadyQueue {
 public:
  /// Sort key inside the ordered map: the policy's primary key with the
  /// job-id tie-break every policy ordering uses.
  struct OrderKey {
    double primary = 0.0;
    std::uint64_t id = 0;
    [[nodiscard]] bool operator<(const OrderKey& o) const {
      if (primary != o.primary) return primary < o.primary;
      return id < o.id;
    }
  };

  explicit ReadyQueue(Policy policy) : policy_(policy) {}

  /// Inserts `job` (its id must not already be queued).
  void push(const PendingJob& job);
  /// Removes the entry with `id` (must be queued).
  void erase(std::uint64_t id);
  [[nodiscard]] const PendingJob* find(std::uint64_t id) const;
  [[nodiscard]] bool empty() const { return jobs_.empty(); }
  [[nodiscard]] std::size_t size() const { return jobs_.size(); }

  /// The queue in dispatch-preference order.
  [[nodiscard]] const std::map<OrderKey, PendingJob>& ordered() const {
    return jobs_;
  }
  /// Ids of queued jobs sharing this nonzero batch key, ascending.
  [[nodiscard]] std::vector<std::uint64_t> batch_peers(
      std::uint64_t key) const;
  /// Clamps every queued width into [1, max_width] (elastic resize after
  /// rank loss).  Widths are not part of the sort key, so order holds.
  void clamp_widths(int max_width);

 private:
  [[nodiscard]] OrderKey key_of(const PendingJob& job) const;

  Policy policy_;
  std::map<OrderKey, PendingJob> jobs_;
  std::unordered_map<std::uint64_t, OrderKey> by_id_;
  std::multimap<std::uint64_t, std::uint64_t> by_batch_key_;
};

/// The rank subset the policy assigns to a gang of `width` from
/// `free_ranks` (engine ranks, ascending).  kHeteroBestFit takes the
/// fastest ranks (smallest w_i, id tie-break); the others the lowest ids.
/// The result is ascending -- the subset order Comm::subset requires.
/// `speed_scale`, when non-null, is a per-engine-rank multiplier on the
/// platform speed (the resilient scheduler's online w_i re-estimation);
/// the default null keeps historic decisions bit-identical.
[[nodiscard]] std::vector<int> pick_members(
    Policy policy, const simnet::Platform& platform,
    const std::vector<int>& free_ranks, int width,
    const std::vector<double>* speed_scale = nullptr);

/// Earliest estimated time at least `width` ranks are simultaneously free,
/// given `free_now` currently free and the running jobs' est_finish times.
/// Returns `now` when already satisfiable.
[[nodiscard]] double reservation_time(const std::vector<RunningJob>& running,
                                      std::size_t free_now, int width,
                                      double now);

/// try_select result: the selected job's id and stream index, plus the
/// rank subset it is placed on.
struct QueueSelection {
  std::uint64_t id = 0;
  std::size_t index = 0;
  std::vector<int> members;
};

/// The policy's dispatch decision at virtual time `now`: the next job to
/// start and its placement, or nullopt when nothing may start (the
/// dispatcher then waits for the next arrival or completion).
[[nodiscard]] std::optional<QueueSelection> try_select(
    Policy policy, const simnet::Platform& platform, const ReadyQueue& ready,
    const std::vector<int>& free_ranks,
    const std::vector<RunningJob>& running, double now,
    const std::vector<double>* speed_scale = nullptr);

}  // namespace hprs::sched
