#include "sched/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "core/ft.hpp"
#include "obs/metrics.hpp"
#include "sched/checkpoint.hpp"
#include "sched/cost_model.hpp"
#include "vmpi/comm.hpp"

namespace hprs::sched {
namespace {

// Control-plane tags, chosen above anything the algorithm bodies use.  The
// dispatcher shares a rank pair with every worker, so the control plane
// needs tags no job traffic reuses; job-internal p2p runs between worker
// pairs (disjoint from dispatcher pairs) or on sub-communicator collectives
// and cannot collide.
constexpr int kCmdTag = 9001;
constexpr int kDoneTag = 9002;

/// Dispatcher -> member gang command (or shutdown).
struct Cmd {
  bool shutdown = false;
  std::uint32_t index = 0;   ///< stream index of the job
  std::uint32_t attempt = 1; ///< 1-based attempt (always 1 in base mode)
  std::vector<int> members;  ///< engine ranks of the gang, ascending
};

/// Gang leader -> dispatcher report of one attempt.  A leader that crashed
/// sends nothing, which the dispatcher detects with try_recv.
struct Done {
  std::uint32_t index = 0;
  double finish_s = 0.0;  ///< gang-aligned completion (virtual seconds)
  double busy_s = 0.0;    ///< summed busy time of the surviving members
  AttemptOutcome outcome;
  std::vector<int> lost;  ///< engine ranks of members that died
};

constexpr std::size_t kCmdBaseBytes = 16;
constexpr std::size_t kDoneBytes = 24;

[[nodiscard]] std::size_t cmd_bytes(const Cmd& cmd) {
  return kCmdBaseBytes + 4 * cmd.members.size();
}

/// A clean attempt's report is kDoneBytes; lost ranks, checkpoint marks
/// (with the checkpoint cost and resume depth) and the error add bytes only
/// when present.
[[nodiscard]] std::size_t done_bytes(const Done& done) {
  const AttemptOutcome& oc = done.outcome;
  const bool checkpointed = !oc.checkpoint_at_s.empty() || oc.resumed_seq > 0;
  return kDoneBytes + 4 * done.lost.size() +
         (checkpointed ? 12 + 8 * oc.checkpoint_at_s.size() : 0) +
         oc.error.size();
}

/// Snapshot-scope label of one job's gang communicator.
[[nodiscard]] std::string job_snapshot_scope(const JobSpec& spec) {
  return "job:" + std::to_string(spec.id) + "/" + to_string(spec.algorithm);
}

/// Decorrelates the dispatcher's sampling schedule from the per-group
/// cadences (which are keyed on communicator ids).
constexpr std::uint64_t kDispatcherScopeId = 0xd15ba7c4e5c09e1dULL;

/// Growth factor and jitter seed of the retry backoff (see RetryPolicy).
constexpr double kRetryBackoffFactor = 2.0;
constexpr std::uint64_t kRetryBackoffSeed = 0x5eedf00dULL;

/// Live per-tenant accounting the dispatcher keeps for quota admission and
/// the "tenant:<name>" pvar scopes.  All fields advance at deterministic
/// dispatcher events (arrival processing, dispatch, completion), so the
/// sampled series are bit-identical across runs and exec modes.
struct TenantLive {
  /// Summed requested gang widths of admitted, not-yet-finished jobs --
  /// the quantity SchedulerConfig::tenant_rank_caps bounds.
  int inflight_ranks = 0;
  std::size_t ready = 0;    ///< jobs waiting in the ready queue
  std::size_t running = 0;  ///< gangs holding ranks
  std::size_t riders = 0;   ///< batched riders waiting on a gang
  std::uint64_t completed = 0;
  std::uint64_t rejected_quota = 0;
  std::uint64_t batched = 0;  ///< riders served by fan-out (cumulative)
};
using TenantMap = std::map<std::string, TenantLive>;

/// Dispatcher-side counter plane: job/retry counters plus queue-depth and
/// bytes-in-flight levels, sampled on the engine's snapshot cadence at the
/// top of the dispatch loop, and once more after the shutdown drain so the
/// timeline records how the schedule ended.  Every sampled quantity and
/// the loop's `now` sequence are deterministic virtual-time state
/// (DESIGN.md §11), so the series is bit-identical across runs and exec
/// modes.
class DispatcherPvars {
 public:
  explicit DispatcherPvars(vmpi::Comm& comm)
      : comm_(comm), enabled_(comm.snapshots_enabled()) {
    if (enabled_) {
      cadence_ = obs::SnapshotCadence(comm.snapshot_config().interval_s,
                                      obs::kDefaultSnapshotSeed,
                                      kDispatcherScopeId);
    }
  }

  void on_dispatch(std::size_t wire_bytes) {
    ++dispatched_;
    cmd_wire_bytes_ += wire_bytes;
    bytes_in_flight_ += wire_bytes;
  }
  void on_complete(std::size_t wire_bytes) {
    ++completed_;
    bytes_in_flight_ -= std::min<std::uint64_t>(bytes_in_flight_, wire_bytes);
  }
  void on_retry() { ++retried_; }
  void on_worker_lost() { ++lost_workers_; }

  void maybe_sample(double now, std::size_t ready, std::size_t running,
                    std::size_t free, std::size_t retry_queue,
                    const TenantMap* tenants) {
    if (!enabled_ || !cadence_.due(now)) return;
    cadence_.advance_past(now);
    sample(ready, running, free, retry_queue, tenants);
  }

  /// One sample at the dispatcher's current clock, outside the cadence.
  void sample(std::size_t ready, std::size_t running, std::size_t free,
              std::size_t retry_queue, const TenantMap* tenants) {
    if (!enabled_) return;
    obs::PvarSet set;
    set.counter("jobs.dispatched", dispatched_);
    set.counter("jobs.completed", completed_);
    set.counter("jobs.retried", retried_);
    set.counter("workers.lost", lost_workers_);
    set.counter("cmd.wire_bytes", cmd_wire_bytes_);
    set.level("bytes.in_flight", static_cast<double>(bytes_in_flight_));
    set.level("queue.ready", static_cast<double>(ready));
    set.level("queue.retry", static_cast<double>(retry_queue));
    set.level("gangs.running", static_cast<double>(running));
    set.level("workers.free", static_cast<double>(free));
    comm_.snapshot_sample("dispatcher", set);
    // Per-tenant series ride the dispatcher's cadence event, one scope per
    // tenant in map (= name) order.  Untenanted streams pass null and emit
    // exactly the historic scope set.
    if (tenants != nullptr) {
      for (const auto& [name, t] : *tenants) {
        obs::PvarSet ts;
        ts.counter("jobs.completed", t.completed);
        ts.counter("jobs.rejected_quota", t.rejected_quota);
        ts.counter("jobs.batched", t.batched);
        ts.level("jobs.ready", static_cast<double>(t.ready));
        ts.level("gangs.running", static_cast<double>(t.running));
        ts.level("jobs.riders", static_cast<double>(t.riders));
        ts.level("ranks.inflight", static_cast<double>(t.inflight_ranks));
        comm_.snapshot_sample("tenant:" + name, ts);
      }
    }
  }

 private:
  vmpi::Comm& comm_;
  bool enabled_ = false;
  obs::SnapshotCadence cadence_;
  std::uint64_t dispatched_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t retried_ = 0;
  std::uint64_t lost_workers_ = 0;
  std::uint64_t cmd_wire_bytes_ = 0;
  std::uint64_t bytes_in_flight_ = 0;  ///< control-plane bytes of running gangs
};

/// Control-plane wire bytes a running gang's dispatch put in flight.
[[nodiscard]] std::size_t gang_wire_bytes(std::size_t members) {
  return (kCmdBaseBytes + 4 * members) * members;
}

/// Sub-communicator uid of one attempt: retries of a job must build a
/// *fresh* communicator (the previous one may contain dead ranks and
/// half-matched state), so the attempt number is mixed in; a first attempt
/// keeps the job id.
[[nodiscard]] std::uint64_t attempt_uid(std::uint64_t job_id,
                                        std::uint32_t attempt) {
  return job_id + (static_cast<std::uint64_t>(attempt - 1) << 32);
}

/// Continues `gang` on its survivors after a collective found dead
/// members; false when the leader is among them.
[[nodiscard]] bool survive(vmpi::Comm& gang) {
  const std::vector<int>& dead = gang.failed();
  if (dead.empty()) return true;
  if (std::binary_search(dead.begin(), dead.end(), gang.root())) return false;
  gang = gang.shrink();
  return true;
}

/// The gang runtime: one attempt of the job on a fresh sub-communicator
/// over the commanded members (run_attempt: the collective driver, which
/// recovers in place from member crashes, checkpointing under
/// SchedulerConfig::resilience).  Every member executes this; only the
/// gang leader (members[0]) writes `out` and reports the attempt's one
/// Done.  When the leader dies the others just return: the dispatcher
/// reads the missing Done as the leader's death.
void run_gang(vmpi::Comm& world, const Cmd& cmd, const JobSpec& spec,
              const hsi::HsiCube& scene, JobOutput& out,
              const ResilienceConfig& rc, CheckpointStore* store) {
  vmpi::Comm sub = world.subset(cmd.members, attempt_uid(spec.id, cmd.attempt));
  // Resilient attempts stay unsampled, so a retried job keeps one series.
  if (world.snapshots_enabled() && !rc.enabled) {
    sub.label_snapshots(job_snapshot_scope(spec));
  }
  const vmpi::RankStats before = sub.stats();
  vmpi::Comm gang = sub.tolerant();
  Done done;
  try {
    done.outcome = run_attempt(gang, spec, scene, static_cast<int>(cmd.attempt),
                               rc, store, out);
  } catch (const core::ft::RootLost&) {
    return;
  }

  // Align the gang so the recorded finish covers every member, snapshot
  // the attempt's busy window, then fold the per-member busy time to the
  // leader (the accounting traffic is charged after the finish snapshot,
  // so it never pollutes the job's utilization).
  gang.barrier();
  if (!survive(gang)) return;
  const vmpi::RankStats after = gang.stats();
  const auto busys =
      gang.gather(gang.root(), after.busy() - before.busy(), sizeof(double));
  if (!survive(gang) || !gang.is_root()) return;
  done.index = cmd.index;
  done.finish_s = after.clock;
  for (double b : busys) done.busy_s += b;
  for (int l = 0, g = 0; l < sub.size(); ++l) {
    if (g < gang.size() && gang.world_rank_of(g) == sub.world_rank_of(l)) {
      ++g;
    } else {
      done.lost.push_back(sub.world_rank_of(l));
    }
  }
  const std::size_t bytes = done_bytes(done);
  world.send(world.root(), std::move(done), bytes, kDoneTag);
}

void worker_loop(vmpi::Comm& comm, const std::vector<JobSpec>& stream,
                 const hsi::HsiCube& scene, std::vector<JobOutput>& outputs,
                 const ResilienceConfig& rc, CheckpointStore* store) {
  while (true) {
    const Cmd cmd = comm.recv<Cmd>(comm.root(), kCmdTag);
    if (cmd.shutdown) break;
    const JobSpec& spec = stream[cmd.index];
    run_gang(comm, cmd, spec, spec.scene != nullptr ? *spec.scene : scene,
             outputs[cmd.index], rc, store);
  }
}

/// One queued retry: the job may start again at `retry_at_s`.
struct RetryEntry {
  double retry_at_s = 0.0;
  std::size_t index = 0;
  double backoff_s = 0.0;
};

/// The control plane: admission, the retry queue, placement, gang
/// dispatch with compute-once batching, and outcome handling.
/// SchedulerConfig::resilience enables the resilient-only bookkeeping
/// (attempt history, speed feedback, retries).
void dispatcher_loop(vmpi::Comm& comm, const std::vector<JobSpec>& stream,
                     const hsi::HsiCube& scene, const SchedulerConfig& config,
                     std::vector<JobRecord>& records, CheckpointStore& store,
                     std::vector<int>& lost_ranks) {
  const simnet::Platform& platform = comm.platform();
  const Policy policy = config.policy;
  const bool resilient = config.resilience.enabled;
  const RetryPolicy& retry = config.resilience.retry;
  constexpr double kInf = std::numeric_limits<double>::infinity();

  std::vector<int> pool;  // surviving worker ranks, ascending
  for (int r = 0; r < comm.size(); ++r) {
    if (r != comm.root()) pool.push_back(r);
  }
  std::set<int> free(pool.begin(), pool.end());
  // Online w_i re-estimation: measured-vs-estimated spans of completed
  // resilient attempts nudge a per-rank speed multiplier the placement and
  // estimates consult.  Seeded entirely by virtual-time observations ->
  // deterministic; all-ones (hence exact) in base mode.
  std::vector<double> speed_scale(platform.size(), 1.0);

  // Arrival order over admitted jobs: (arrival, id), the event order the
  // dispatcher paces virtual time with.
  std::vector<std::size_t> arrivals;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (!records[i].rejected) arrivals.push_back(i);
  }
  std::sort(arrivals.begin(), arrivals.end(),
            [&stream](std::size_t a, std::size_t b) {
              if (stream[a].arrival_s != stream[b].arrival_s) {
                return stream[a].arrival_s < stream[b].arrival_s;
              }
              return stream[a].id < stream[b].id;
            });

  // Per-tenant live accounting, pre-seeded from the stream so every tenant
  // has a pvar series from the first dispatcher sample on.  Only base mode
  // samples the series: untenanted streams and resilient runs emit exactly
  // the historic scope set.
  TenantMap tenants;
  for (std::size_t i : arrivals) {
    if (!stream[i].tenant.empty()) tenants[stream[i].tenant];
  }
  const TenantMap* tenant_view =
      resilient || tenants.empty() ? nullptr : &tenants;
  const auto live_of = [&tenants](const JobSpec& spec) -> TenantLive* {
    if (spec.tenant.empty()) return nullptr;
    const auto it = tenants.find(spec.tenant);
    return it == tenants.end() ? nullptr : &it->second;
  };

  std::size_t next_arrival = 0;
  ReadyQueue ready(policy);
  std::vector<RunningJob> running;
  std::vector<RetryEntry> retryq;
  std::size_t terminal = 0;  // quota-rejected + settled jobs
  DispatcherPvars pvars(comm);

  // Every terminal path of an admitted job ends here: it drops the job's
  // checkpoints and releases the tenant's in-flight ranks.
  const auto settle = [&](std::size_t idx, JobState state) {
    records[idx].state = state;
    store.erase(stream[idx].id);
    if (TenantLive* live = live_of(stream[idx])) {
      live->inflight_ranks -= stream[idx].ranks;
      if (state == JobState::kCompleted) ++live->completed;
    }
    ++terminal;
  };
  const auto finalize = [&](std::size_t idx, const std::string& why) {
    records[idx].error = why;
    settle(idx, store.committed_count(stream[idx].id) > 0
                    ? JobState::kDegraded
                    : JobState::kFailed);
  };

  // A rank detected dead leaves the pool for good; ready widths re-clamp
  // so queued jobs elastically resize to whatever survives.  Idempotent: a
  // rank found dead at dispatch is probed again when its gang reports.
  const auto remove_rank = [&](int rank) {
    const auto it = std::find(pool.begin(), pool.end(), rank);
    if (it == pool.end()) return;
    pool.erase(it);
    free.erase(rank);
    lost_ranks.push_back(rank);
    pvars.on_worker_lost();
    ready.clamp_widths(static_cast<int>(pool.size()));
  };

  // Compute-once batching: rider `ridx` takes `host`'s result instead of
  // running itself.
  const auto attach_rider = [&](RunningJob& host, std::size_t ridx,
                                double now) {
    JobRecord& rider = records[ridx];
    rider.dispatch_s = now;  // joined the in-flight computation
    rider.members = records[host.index].members;
    rider.est_seconds = records[host.index].est_seconds;
    rider.batched_into = host.id;
    host.riders.push_back(ridx);
    if (TenantLive* live = live_of(stream[ridx])) ++live->riders;
  };

  // The one entry path of arrivals, due retries, and riders released by a
  // failed attempt: ride a running compute-equivalent gang when one exists
  // (the lowest job id hosts -- a deterministic rule), else join the ready
  // queue at a width the surviving pool can hold.
  const auto enqueue = [&](std::size_t idx, double now, double backoff_s,
                           const char* purpose) {
    const JobSpec& spec = stream[idx];
    if (pool.empty()) {
      finalize(idx, std::string("no surviving workers to ") + purpose +
                        " the job");
      return;
    }
    if (config.batch_shared_keys && spec.batch_key != 0) {
      RunningJob* host = nullptr;
      for (RunningJob& run : running) {
        if (run.batch_key == spec.batch_key &&
            compute_equivalent(stream[run.index], spec) &&
            (host == nullptr || run.id < host->id)) {
          host = &run;
        }
      }
      if (host != nullptr) {
        attach_rider(*host, idx, now);
        return;
      }
    }
    PendingJob pending{spec.id, idx, spec.arrival_s, records[idx].est_seconds,
                       std::min(spec.ranks, static_cast<int>(pool.size()))};
    pending.batch_key = config.batch_shared_keys ? spec.batch_key : 0;
    pending.backoff_s = backoff_s;
    ready.push(pending);
    if (TenantLive* live = live_of(spec)) ++live->ready;
  };

  while (terminal < arrivals.size()) {
    const double now = comm.now();

    // Admit everything that has arrived by now.  The tenant cap on
    // in-flight ranks is enforced at the arrival event, before the job can
    // hold a queue slot.
    while (next_arrival < arrivals.size() &&
           stream[arrivals[next_arrival]].arrival_s <= now) {
      const std::size_t idx = arrivals[next_arrival++];
      const JobSpec& spec = stream[idx];
      if (TenantLive* live = live_of(spec)) {
        const auto cap = config.tenant_rank_caps.find(spec.tenant);
        if (cap != config.tenant_rank_caps.end() && cap->second > 0 &&
            live->inflight_ranks + spec.ranks > cap->second) {
          JobRecord& record = records[idx];
          record.rejected = true;
          record.state = JobState::kRejected;
          record.error = "quota:inflight_ranks tenant '" + spec.tenant +
                         "' cap " + std::to_string(cap->second) +
                         " in flight " +
                         std::to_string(live->inflight_ranks) +
                         " requested " + std::to_string(spec.ranks);
          ++live->rejected_quota;
          ++terminal;
          continue;
        }
        live->inflight_ranks += spec.ranks;
      }
      enqueue(idx, now, 0.0, "run");
    }
    // Due retries re-enter in deterministic (retry_at, id) order.
    std::sort(retryq.begin(), retryq.end(),
              [&stream](const RetryEntry& a, const RetryEntry& b) {
                if (a.retry_at_s != b.retry_at_s) {
                  return a.retry_at_s < b.retry_at_s;
                }
                return stream[a.index].id < stream[b.index].id;
              });
    while (!retryq.empty() && retryq.front().retry_at_s <= now) {
      const RetryEntry entry = retryq.front();
      retryq.erase(retryq.begin());
      enqueue(entry.index, now, entry.backoff_s, "retry");
    }
    pvars.maybe_sample(now, ready.size(), running.size(), free.size(),
                       retryq.size(), tenant_view);

    const std::vector<int> free_ranks(free.begin(), free.end());
    if (auto sel = try_select(policy, platform, ready, free_ranks, running,
                              now, &speed_scale)) {
      const std::size_t idx = sel->index;
      const JobSpec& spec = stream[idx];
      const hsi::HsiCube& job_scene =
          spec.scene != nullptr ? *spec.scene : scene;
      std::vector<int> members = sel->members;
      if (policy == Policy::kHeteroBestFit) {
        // Second opinion on mixed CPU+accelerator platforms: a tiny job's
        // launch-latency bill can make an all-CPU gang cheaper than the
        // "fastest ranks" pick.  Identity when the pick has no accelerator.
        members = refine_members(platform, free_ranks, std::move(members),
                                 spec, job_scene);
      }
      JobRecord& record = records[idx];
      record.dispatch_s = now;
      record.members = members;
      record.est_seconds =
          estimate_job(platform, members, spec, job_scene, &speed_scale)
              .seconds;
      Cmd cmd;
      cmd.index = static_cast<std::uint32_t>(idx);
      cmd.members = members;
      if (resilient) {
        JobAttempt attempt;
        attempt.attempt = static_cast<int>(record.attempts.size()) + 1;
        attempt.dispatch_s = now;
        attempt.backoff_s = ready.find(sel->id)->backoff_s;
        attempt.width = static_cast<int>(members.size());
        attempt.members = members;
        cmd.attempt = static_cast<std::uint32_t>(attempt.attempt);
        record.attempts.push_back(std::move(attempt));
      }
      ready.erase(sel->id);
      if (TenantLive* live = live_of(spec)) {
        --live->ready;
        ++live->running;
      }
      RunningJob run;
      run.id = spec.id;
      run.index = idx;
      run.est_finish_s = now + record.est_seconds;
      run.members = members;
      run.batch_key = config.batch_shared_keys ? spec.batch_key : 0;
      // Compute-once batching, dispatch side: every queued
      // compute-equivalent request with the same key skips its own
      // dispatch and takes this gang's result.
      if (run.batch_key != 0) {
        for (std::uint64_t peer : ready.batch_peers(run.batch_key)) {
          const PendingJob* pending = ready.find(peer);
          HPRS_ASSERT(pending != nullptr);
          const std::size_t ridx = pending->index;
          if (!compute_equivalent(stream[ridx], spec)) continue;
          ready.erase(peer);
          if (TenantLive* rlive = live_of(stream[ridx])) --rlive->ready;
          attach_rider(run, ridx, now);
        }
      }
      running.push_back(std::move(run));
      for (int m : members) free.erase(m);
      // A member that crashed idle after reporting itself free cannot take
      // the command: it leaves the pool here, and the gang runtime absorbs
      // its absence like any crash inside an attempt.
      const std::size_t bytes = cmd_bytes(cmd);
      for (int m : members) {
        if (!comm.try_send(m, cmd, bytes, kCmdTag)) remove_rank(m);
      }
      pvars.on_dispatch(gang_wire_bytes(members.size()));
      continue;
    }

    // Nothing may start: advance virtual time to the next arrival, due
    // retry, or completion.  Arrival and retry times are known exactly;
    // completions are consumed in the cost model's (est_finish, id) order
    // -- a deterministic rule, so the schedule cannot depend on host
    // timing even when an estimate is off.
    double wake = next_arrival < arrivals.size()
                      ? stream[arrivals[next_arrival]].arrival_s
                      : kInf;
    for (const RetryEntry& entry : retryq) {
      wake = std::min(wake, entry.retry_at_s);
    }
    if (running.empty()) {
      HPRS_ASSERT(wake < kInf);  // else the stream would be drained
      comm.sleep_until(wake);
      continue;
    }
    std::size_t next = 0;
    for (std::size_t i = 1; i < running.size(); ++i) {
      const bool earlier =
          running[i].est_finish_s != running[next].est_finish_s
              ? running[i].est_finish_s < running[next].est_finish_s
              : running[i].id < running[next].id;
      if (earlier) next = i;
    }
    if (wake <= running[next].est_finish_s) {
      comm.sleep_until(wake);
      continue;
    }

    // Consume the attempt: the leader's one Done.  Silence means the
    // leader crashed: it leaves the pool, and the other members are free
    // again (one that died too is found when next commanded); the members
    // Done lists as lost leave the pool as well.  try_recv's detection
    // time is charged to the dispatcher in virtual time, so the schedule
    // stays deterministic.
    const RunningJob run = std::move(running[next]);
    running.erase(running.begin() + static_cast<std::ptrdiff_t>(next));
    pvars.on_complete(gang_wire_bytes(run.members.size()));
    if (TenantLive* live = live_of(stream[run.index])) --live->running;
    JobRecord& record = records[run.index];
    const int leader = run.members.front();
    std::optional<Done> report = comm.try_recv<Done>(leader, kDoneTag);
    HPRS_ASSERT(!report.has_value() || report->index == run.index);
    for (int m : run.members) {
      const bool lost =
          report.has_value()
              ? std::find(report->lost.begin(), report->lost.end(), m) !=
                    report->lost.end()
              : m == leader;
      if (lost) {
        remove_rank(m);
      } else {
        free.insert(m);
      }
    }
    if (report.has_value()) record.busy_s += report->busy_s;
    if (resilient) {
      JobAttempt& attempt = record.attempts.back();
      attempt.end_s = report.has_value() ? report->finish_s : comm.now();
      if (report.has_value()) {
        const AttemptOutcome& oc = report->outcome;
        attempt.resumed_seq = oc.resumed_seq;
        attempt.checkpoints = static_cast<int>(oc.checkpoint_at_s.size());
        attempt.checkpoint_s = oc.checkpoint_s;
        attempt.checkpoint_at_s = oc.checkpoint_at_s;
      }
    }

    if (report.has_value() && report->outcome.status == 0) {
      record.finish_s = report->finish_s;
      record.batch_fanout = run.riders.size();
      settle(run.index, JobState::kCompleted);
      if (resilient) {
        JobAttempt& attempt = record.attempts.back();
        attempt.outcome = "completed";
        // Feed the measured span back into the speed estimates: ratio > 1
        // means the gang beat its estimate (its ranks run faster than the
        // platform w_i claims), < 1 the opposite.  Clamps keep one noisy
        // attempt from swinging placements wildly.
        const double measured = report->finish_s - attempt.dispatch_s;
        if (measured > 0.0) {
          const double ratio =
              std::clamp(record.est_seconds / measured, 0.25, 4.0);
          for (int m : run.members) {
            auto& scale = speed_scale[static_cast<std::size_t>(m)];
            scale = std::clamp(scale * (0.7 + 0.3 * ratio), 0.1, 10.0);
          }
        }
      }
      // Fan the completion out to the riders: their result is the leader's
      // (run_schedule copies the output after the run); available at the
      // gang's finish, or at the rider's own attach instant if the gang's
      // actual finish predates it (estimate skew).
      for (std::size_t ridx : run.riders) {
        JobRecord& rider = records[ridx];
        rider.finish_s = std::max(report->finish_s, rider.dispatch_s);
        if (TenantLive* rlive = live_of(stream[ridx])) {
          --rlive->riders;
          ++rlive->batched;
        }
        settle(ridx, JobState::kCompleted);
      }
    } else {
      const bool preempted =
          report.has_value() && report->outcome.status == 1;
      const std::string why =
          !report.has_value()
              ? "leader crashed"
              : (preempted ? "preempted" : report->outcome.error);
      const int attempts_done = static_cast<int>(record.attempts.size());
      if (resilient) record.attempts.back().outcome = why;
      if (!resilient) {
        // Base mode runs one attempt: an error in the gang (a WEA the gang
        // cannot fit in memory, say) ends the job with its reason.
        finalize(run.index, why);
      } else if (pool.empty() || attempts_done >= retry.max_attempts) {
        finalize(run.index,
                 pool.empty()
                     ? "no surviving workers to retry the job (" + why + ")"
                     : "retries exhausted after " +
                           std::to_string(attempts_done) + " attempts (" +
                           why + ")");
      } else {
        // Preemption requeues immediately (the deadline already rationed
        // the attempt); crashes and errors wait out a seeded jittered
        // exponential backoff in virtual time.
        double backoff = 0.0;
        if (!preempted) {
          const int next_attempt = attempts_done + 1;
          SplitMix64 rng(kRetryBackoffSeed ^ stream[run.index].id ^
                         static_cast<std::uint64_t>(next_attempt));
          const double u =
              static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
          backoff = retry.backoff_base_s *
                    std::pow(kRetryBackoffFactor, next_attempt - 2) *
                    (0.5 + u);
        }
        retryq.push_back(RetryEntry{comm.now() + backoff, run.index, backoff});
        pvars.on_retry();
      }
      // The failed attempt releases its riders: with their rider fields
      // cleared they re-enter like arrivals, re-attaching to the next
      // compute-equivalent gang.
      for (std::size_t ridx : run.riders) {
        JobRecord& rider = records[ridx];
        rider.dispatch_s = -1.0;
        rider.members.clear();
        rider.batched_into = 0;
        if (TenantLive* rlive = live_of(stream[ridx])) --rlive->riders;
        enqueue(ridx, comm.now(), 0.0, "run");
      }
    }

    // A completion that killed the last workers strands everything still
    // queued; resolve those jobs now instead of spinning.  Gangs still
    // running on dead ranks resolve at their own completion.
    if (pool.empty()) {
      for (const auto& [key, job] : ready.ordered()) {
        if (TenantLive* live = live_of(stream[job.index])) --live->ready;
        finalize(job.index, "no surviving workers to run the job");
      }
      ready = ReadyQueue(policy);
      for (const RetryEntry& entry : retryq) {
        finalize(entry.index, "no surviving workers to retry the job");
      }
      retryq.clear();
    }
  }

  // Drain the survivors, one shutdown command each.  A rank that crashed
  // idle after reporting itself free can no longer match a message;
  // try_send detects it instead of aborting the run.
  Cmd bye;
  bye.shutdown = true;
  for (int m : std::vector<int>(pool)) {
    if (!comm.try_send(m, bye, kCmdBaseBytes, kCmdTag)) remove_rank(m);
  }
  pvars.sample(ready.size(), running.size(), free.size(), retryq.size(),
               tenant_view);
}

}  // namespace

std::size_t ScheduleResult::completed() const {
  std::size_t n = 0;
  for (const JobRecord& r : records) n += r.completed() ? 1 : 0;
  return n;
}

std::size_t ScheduleResult::rejected() const {
  std::size_t n = 0;
  for (const JobRecord& r : records) n += r.rejected ? 1 : 0;
  return n;
}

std::size_t ScheduleResult::degraded() const {
  std::size_t n = 0;
  for (const JobRecord& r : records) {
    n += r.state == JobState::kDegraded ? 1 : 0;
  }
  return n;
}

std::size_t ScheduleResult::failed() const {
  std::size_t n = 0;
  for (const JobRecord& r : records) n += r.state == JobState::kFailed ? 1 : 0;
  return n;
}

ScheduleResult run_schedule(const simnet::Platform& platform,
                            const hsi::HsiCube& scene,
                            const std::vector<JobSpec>& stream,
                            const SchedulerConfig& config,
                            vmpi::Options options) {
  HPRS_REQUIRE(platform.size() >= 2,
               "the scheduler needs a dispatcher rank plus at least one "
               "worker");
  {
    std::set<std::uint64_t> ids;
    for (const JobSpec& spec : stream) {
      HPRS_REQUIRE(ids.insert(spec.id).second,
                   "duplicate job id " + std::to_string(spec.id) +
                       " in the stream");
    }
  }

  const int root = options.root;
  HPRS_REQUIRE(root >= 0 && static_cast<std::size_t>(root) < platform.size(),
               "dispatcher (root) rank out of range");
  // Fail fast at schedule construction: a crash aimed at the dispatcher or
  // a nonexistent rank is a plan bug, not a survivable fault.
  validate_cluster_fault_plan(options, platform.size());
  std::vector<int> pool;
  for (std::size_t r = 0; r < platform.size(); ++r) {
    if (static_cast<int>(r) != root) pool.push_back(static_cast<int>(r));
  }

  ScheduleResult result;
  result.policy = config.policy;
  result.records.resize(stream.size());
  result.outputs.resize(stream.size());

  // Memory-bound admission plus the canonical (full-pool placement)
  // estimate SJF orders the ready queue by.  Both are host-side and purely
  // arithmetic, so the engine program below is already fixed before it
  // starts -- part of the determinism argument (DESIGN.md section 11).
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const JobSpec& spec = stream[i];
    const hsi::HsiCube& job_scene = spec.scene != nullptr ? *spec.scene : scene;
    JobRecord& record = result.records[i];
    record.id = spec.id;
    record.algorithm = spec.algorithm;
    record.arrival_s = spec.arrival_s;
    record.tenant = spec.tenant;
    try {
      check_admission(platform, pool, spec, job_scene);
      std::vector<int> canonical =
          pick_members(config.policy, platform, pool, spec.ranks);
      if (config.policy == Policy::kHeteroBestFit) {
        canonical = refine_members(platform, pool, std::move(canonical), spec,
                                   job_scene);
      }
      record.est_seconds =
          estimate_job(platform, canonical, spec, job_scene).seconds;
    } catch (const AdmissionError& e) {
      record.rejected = true;
      record.error = e.what();
      record.state = JobState::kRejected;
    }
  }

  CheckpointStore store;
  CheckpointStore* gang_store =
      config.resilience.resume_from_checkpoint ? &store : nullptr;
  vmpi::Engine engine(platform, options);
  result.report = engine.run([&](vmpi::Comm& comm) {
    if (comm.rank() == comm.root()) {
      dispatcher_loop(comm, stream, scene, config, result.records, store,
                      result.lost_ranks);
    } else {
      worker_loop(comm, stream, scene, result.outputs, config.resilience,
                  gang_store);
    }
  });
  std::sort(result.lost_ranks.begin(), result.lost_ranks.end());

  // Fan batched results out: a rider's output is its leader's, bit for bit
  // (compute_equivalent guarantees the leader's run equals a solo run of
  // the rider's own spec on the same gang).
  if (config.batch_shared_keys) {
    std::map<std::uint64_t, std::size_t> index_of;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      index_of[stream[i].id] = i;
    }
    for (std::size_t i = 0; i < result.records.size(); ++i) {
      const std::uint64_t leader = result.records[i].batched_into;
      if (leader == 0) continue;
      result.outputs[i] = result.outputs[index_of.at(leader)];
    }
  }

  for (const JobRecord& record : result.records) {
    if (!record.completed()) continue;
    result.makespan_s = std::max(result.makespan_s, record.finish_s);
    result.utilization += record.busy_s;
  }
  const double span =
      result.makespan_s * static_cast<double>(pool.size());
  result.utilization = span > 0.0 ? result.utilization / span : 0.0;

  if (config.record_metrics) {
    auto& metrics = obs::Metrics::instance();
    metrics.add("sched.jobs.completed", result.completed());
    metrics.add("sched.jobs.rejected", result.rejected());
    // Batching counters only exist when the feature is on, so plain runs
    // publish exactly the historic metric set.
    if (config.batch_shared_keys) {
      std::size_t riders = 0;
      for (const JobRecord& record : result.records) {
        riders += record.batched_into != 0 ? 1 : 0;
      }
      metrics.add("sched.jobs.batched_riders", riders);
    }
    for (const JobRecord& record : result.records) {
      if (!record.completed()) continue;
      const std::string prefix =
          "sched.job." + std::to_string(record.id) + ".";
      metrics.gauge_max(prefix + "queue_wait_s", record.queue_wait_s());
      metrics.gauge_max(prefix + "makespan_s", record.makespan_s());
      metrics.gauge_max(prefix + "utilization", record.utilization());
    }
    // Resilience counters only exist in resilient mode, so base-mode runs
    // publish exactly the historic metric set.
    if (config.resilience.enabled) {
      std::size_t attempts = 0;
      std::size_t checkpoints = 0;
      std::size_t resumes = 0;
      for (const JobRecord& record : result.records) {
        attempts += record.attempts.size();
        for (const JobAttempt& attempt : record.attempts) {
          checkpoints += static_cast<std::size_t>(attempt.checkpoints);
          resumes += attempt.resumed_seq > 0 ? 1 : 0;
        }
        if (record.attempts.empty()) continue;
        metrics.add("sched.job." + std::to_string(record.id) + ".attempts",
                    record.attempts.size());
      }
      metrics.add("sched.resilience.attempts", attempts);
      metrics.add("sched.resilience.checkpoints", checkpoints);
      metrics.add("sched.resilience.resumed_attempts", resumes);
      metrics.add("sched.resilience.jobs.degraded", result.degraded());
      metrics.add("sched.resilience.jobs.failed", result.failed());
      metrics.add("sched.resilience.ranks.lost", result.lost_ranks.size());
    }
  }
  return result;
}

std::vector<obs::TraceTrackGroup> job_track_groups(
    const ScheduleResult& result) {
  std::vector<obs::TraceTrackGroup> groups;
  for (const JobRecord& record : result.records) {
    if (record.attempts.empty()) {
      // Base scheduler: one group per completed job.
      if (!record.completed()) continue;
      obs::TraceTrackGroup group;
      group.label = "job:" + std::to_string(record.id) + "/" +
                    to_string(record.algorithm);
      group.members = record.members;
      group.begin_s = record.dispatch_s;
      group.end_s = record.finish_s;
      groups.push_back(std::move(group));
      continue;
    }
    // Resilient scheduler: one group per dispatched attempt, with
    // checkpoint commits and resumed restarts as instant marks.
    for (const JobAttempt& attempt : record.attempts) {
      if (attempt.dispatch_s < 0.0) continue;
      obs::TraceTrackGroup group;
      group.label = "job:" + std::to_string(record.id) + "/" +
                    to_string(record.algorithm) + "#" +
                    std::to_string(attempt.attempt);
      group.members = attempt.members;
      group.begin_s = attempt.dispatch_s;
      group.end_s = attempt.end_s >= 0.0 ? attempt.end_s : attempt.dispatch_s;
      if (attempt.attempt > 1) {
        group.instants.push_back(obs::TraceInstant{
            attempt.resumed_seq > 0 ? "restart (resumed)" : "restart (cold)",
            attempt.dispatch_s});
      }
      for (double t : attempt.checkpoint_at_s) {
        group.instants.push_back(obs::TraceInstant{"checkpoint", t});
      }
      groups.push_back(std::move(group));
    }
  }
  return groups;
}

}  // namespace hprs::sched
