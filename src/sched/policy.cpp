#include "sched/policy.hpp"

#include <algorithm>
#include <iterator>
#include <string>

#include "common/error.hpp"
#include "sched/job.hpp"

namespace hprs::sched {

const char* to_string(JobAlgorithm algorithm) {
  switch (algorithm) {
    case JobAlgorithm::kAtdca: return "ATDCA";
    case JobAlgorithm::kUfcls: return "UFCLS";
    case JobAlgorithm::kPct: return "PCT";
    case JobAlgorithm::kMorph: return "MORPH";
    case JobAlgorithm::kPpi: return "PPI";
  }
  return "?";
}

JobAlgorithm parse_job_algorithm(std::string_view name) {
  if (name == "ATDCA") return JobAlgorithm::kAtdca;
  if (name == "UFCLS") return JobAlgorithm::kUfcls;
  if (name == "PCT") return JobAlgorithm::kPct;
  if (name == "MORPH") return JobAlgorithm::kMorph;
  if (name == "PPI") return JobAlgorithm::kPpi;
  throw Error("unknown job algorithm '" + std::string(name) +
              "' (expected ATDCA, UFCLS, PCT, MORPH, or PPI)");
}

bool compute_equivalent(const JobSpec& a, const JobSpec& b) {
  return a.algorithm == b.algorithm && a.targets == b.targets &&
         a.classes == b.classes && a.iterations == b.iterations &&
         a.kernel_radius == b.kernel_radius && a.skewers == b.skewers &&
         a.seed == b.seed && a.sad_threshold == b.sad_threshold &&
         a.replication == b.replication &&
         a.memory_fraction == b.memory_fraction && a.policy == b.policy &&
         a.charge_data_staging == b.charge_data_staging && a.scene == b.scene;
}

const char* to_string(JobState state) {
  switch (state) {
    case JobState::kPending: return "pending";
    case JobState::kCompleted: return "completed";
    case JobState::kRejected: return "rejected";
    case JobState::kDegraded: return "degraded";
    case JobState::kFailed: return "failed";
  }
  return "?";
}

const char* to_string(Policy policy) {
  switch (policy) {
    case Policy::kFifo: return "fifo";
    case Policy::kSjf: return "sjf";
    case Policy::kHeteroBestFit: return "hetero";
  }
  return "?";
}

Policy parse_policy(std::string_view name) {
  if (name == "fifo") return Policy::kFifo;
  if (name == "sjf") return Policy::kSjf;
  if (name == "hetero") return Policy::kHeteroBestFit;
  throw Error("unknown scheduling policy '" + std::string(name) +
              "' (expected fifo, sjf, or hetero)");
}

std::vector<int> pick_members(Policy policy, const simnet::Platform& platform,
                              const std::vector<int>& free_ranks, int width,
                              const std::vector<double>* speed_scale) {
  HPRS_REQUIRE(width >= 1 &&
                   static_cast<std::size_t>(width) <= free_ranks.size(),
               "pick_members: gang width " + std::to_string(width) +
                   " does not fit " + std::to_string(free_ranks.size()) +
                   " free ranks");
  std::vector<int> members(free_ranks);
  if (policy == Policy::kHeteroBestFit) {
    // Effective cycle time w_i / scale_i: a rank measured faster than its
    // platform w_i (scale > 1) sorts earlier.
    const auto effective = [&platform, speed_scale](int r) {
      const double w = platform.cycle_time(static_cast<std::size_t>(r));
      if (speed_scale == nullptr) return w;
      return w / (*speed_scale)[static_cast<std::size_t>(r)];
    };
    std::sort(members.begin(), members.end(),
              [&effective](int a, int b) {
                const double wa = effective(a);
                const double wb = effective(b);
                if (wa != wb) return wa < wb;
                return a < b;
              });
  }
  members.resize(static_cast<std::size_t>(width));
  // Comm::subset wants strictly increasing ranks; members[0] is the leader.
  std::sort(members.begin(), members.end());
  return members;
}

ReadyQueue::OrderKey ReadyQueue::key_of(const PendingJob& job) const {
  // The policy's primary key; the id tie-break makes the order total.
  const double primary =
      policy_ == Policy::kSjf ? job.est_seconds : job.arrival_s;
  return OrderKey{primary, job.id};
}

void ReadyQueue::push(const PendingJob& job) {
  const OrderKey key = key_of(job);
  HPRS_REQUIRE(by_id_.emplace(job.id, key).second,
               "ReadyQueue: job id " + std::to_string(job.id) +
                   " is already queued");
  jobs_.emplace(key, job);
  if (job.batch_key != 0) by_batch_key_.emplace(job.batch_key, job.id);
}

void ReadyQueue::erase(std::uint64_t id) {
  const auto it = by_id_.find(id);
  HPRS_REQUIRE(it != by_id_.end(),
               "ReadyQueue: erasing unknown job id " + std::to_string(id));
  const auto jt = jobs_.find(it->second);
  HPRS_ASSERT(jt != jobs_.end());
  if (jt->second.batch_key != 0) {
    auto [lo, hi] = by_batch_key_.equal_range(jt->second.batch_key);
    for (auto bt = lo; bt != hi; ++bt) {
      if (bt->second == id) {
        by_batch_key_.erase(bt);
        break;
      }
    }
  }
  jobs_.erase(jt);
  by_id_.erase(it);
}

const PendingJob* ReadyQueue::find(std::uint64_t id) const {
  const auto it = by_id_.find(id);
  if (it == by_id_.end()) return nullptr;
  const auto jt = jobs_.find(it->second);
  return jt == jobs_.end() ? nullptr : &jt->second;
}

std::vector<std::uint64_t> ReadyQueue::batch_peers(std::uint64_t key) const {
  std::vector<std::uint64_t> ids;
  if (key == 0) return ids;
  auto [lo, hi] = by_batch_key_.equal_range(key);
  for (auto it = lo; it != hi; ++it) ids.push_back(it->second);
  std::sort(ids.begin(), ids.end());
  return ids;
}

void ReadyQueue::clamp_widths(int max_width) {
  for (auto& [key, job] : jobs_) {
    job.width = std::max(1, std::min(job.width, max_width));
  }
}

double reservation_time(const std::vector<RunningJob>& running,
                        std::size_t free_now, int width, double now) {
  if (free_now >= static_cast<std::size_t>(width)) return now;
  // Consume completions in (est_finish, id) order -- the same order the
  // dispatcher awaits them in -- until enough ranks are free.
  std::vector<std::size_t> order(running.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&running](std::size_t a,
                                                   std::size_t b) {
    if (running[a].est_finish_s != running[b].est_finish_s) {
      return running[a].est_finish_s < running[b].est_finish_s;
    }
    return running[a].id < running[b].id;
  });
  std::size_t free = free_now;
  for (std::size_t i : order) {
    free += running[i].members.size();
    if (free >= static_cast<std::size_t>(width)) {
      return std::max(now, running[i].est_finish_s);
    }
  }
  // Unsatisfiable even with everything drained: admission rejects such
  // jobs, so a ready job can always eventually run.
  HPRS_ASSERT(false);
  return now;
}

std::optional<QueueSelection> try_select(
    Policy policy, const simnet::Platform& platform, const ReadyQueue& ready,
    const std::vector<int>& free_ranks, const std::vector<RunningJob>& running,
    double now, const std::vector<double>* speed_scale) {
  if (ready.empty()) return std::nullopt;
  const auto& ordered = ready.ordered();
  const PendingJob& head = ordered.begin()->second;
  const bool head_fits =
      static_cast<std::size_t>(head.width) <= free_ranks.size();
  if (head_fits) {
    return QueueSelection{head.id, head.index,
                          pick_members(policy, platform, free_ranks,
                                       head.width, speed_scale)};
  }
  if (policy != Policy::kHeteroBestFit) return std::nullopt;

  // Conservative backfill: the head holds a reservation at the estimated
  // time enough ranks drain; a later job may start now only if it fits the
  // free ranks and its estimated finish does not cross the reservation, so
  // the head starts no later than it would have without backfill.
  const double horizon =
      reservation_time(running, free_ranks.size(), head.width, now);
  for (auto it = std::next(ordered.begin()); it != ordered.end(); ++it) {
    const PendingJob& job = it->second;
    if (static_cast<std::size_t>(job.width) > free_ranks.size()) continue;
    if (now + job.est_seconds <= horizon) {
      return QueueSelection{job.id, job.index,
                            pick_members(policy, platform, free_ranks,
                                         job.width, speed_scale)};
    }
  }
  return std::nullopt;
}

}  // namespace hprs::sched
