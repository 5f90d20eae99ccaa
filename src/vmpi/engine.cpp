#include "vmpi/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <limits>
#include <thread>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/host_profile.hpp"
#include "obs/metrics.hpp"
#include "vmpi/comm.hpp"
#include "vmpi/executor.hpp"

namespace hprs::vmpi {

namespace {

/// Internal unwind signal for a fail-stop crash: thrown by die_locked,
/// absorbed by run()'s rank body.  Deliberately not derived from
/// std::exception so a program's own catch blocks cannot swallow a death.
struct RankCrashedSignal {};

/// Wire duration of a `bytes`-byte message on a c ms-per-megabit link.
double transfer_seconds(std::size_t bytes, double c_ms_per_mbit,
                        double latency_s) {
  const double megabits = static_cast<double>(bytes) * 8.0 / 1e6;
  return megabits * c_ms_per_mbit / 1000.0 + latency_s;
}

std::chrono::steady_clock::time_point deadline_after(double seconds) {
  return std::chrono::steady_clock::now() +
         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             std::chrono::duration<double>(seconds));
}

/// HPRS_THREAD_PER_RANK (non-empty, non-"0") forces the legacy
/// thread-per-rank mode, e.g. for differential testing of the executor.
bool env_thread_per_rank() {
  const char* v = std::getenv("HPRS_THREAD_PER_RANK");
  if (v == nullptr || *v == '\0') return false;
  return !(v[0] == '0' && v[1] == '\0');
}

/// Extra delay of each lost p2p attempt, on top of its wasted wire time
/// (the MessageLoss model, vmpi/fault.hpp).
constexpr double kLossRetryBackoffS = 5e-4;

}  // namespace

const char* to_string(CollectiveKind kind) {
  static constexpr const char* kNames[] = {"none",   "barrier", "bcast",
                                           "gather", "scatter", "exchange"};
  return kNames[static_cast<std::size_t>(kind)];
}

// ---------------------------------------------------------------------------
// RunReport
// ---------------------------------------------------------------------------

double RunReport::imbalance_all() const {
  double lo = ranks[0].busy();
  double hi = lo;
  for (const auto& r : ranks) {
    lo = std::min(lo, r.busy());
    hi = std::max(hi, r.busy());
  }
  return lo > 0.0 ? hi / lo : 1.0;
}

double RunReport::imbalance_minus_root() const {
  if (ranks.size() <= 1) return 1.0;
  double lo = -1.0;
  double hi = 0.0;
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    if (static_cast<int>(i) == root) continue;
    const double b = ranks[i].busy();
    if (lo < 0.0 || b < lo) lo = b;
    hi = std::max(hi, b);
  }
  return lo > 0.0 ? hi / lo : 1.0;
}

std::uint64_t RunReport::total_bytes_moved() const {
  std::uint64_t b = 0;
  for (const auto& r : ranks) b += r.bytes_sent;
  return b;
}

std::uint64_t RunReport::total_flops() const {
  std::uint64_t f = 0;
  for (const auto& r : ranks) f += r.flops;
  return f;
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

Engine::Engine(simnet::Platform platform, Options options)
    : platform_(std::move(platform)), options_(std::move(options)) {
  HPRS_REQUIRE(platform_.size() > 0,
               "platform '" + platform_.name() +
                   "' has zero processors; an engine needs at least one rank");
  HPRS_REQUIRE(options_.root >= 0 && options_.root < size(),
               "root rank " + std::to_string(options_.root) +
                   " out of range for a " + std::to_string(size()) +
                   "-rank platform");
  HPRS_REQUIRE(std::isfinite(options_.per_message_latency_s) &&
                   options_.per_message_latency_s >= 0.0,
               "per_message_latency_s must be finite and non-negative, got " +
                   std::to_string(options_.per_message_latency_s));
  HPRS_REQUIRE(options_.deadlock_timeout_s > 0.0,
               "deadlock_timeout_s must be positive, got " +
                   std::to_string(options_.deadlock_timeout_s));
  HPRS_REQUIRE(std::isfinite(options_.fault_detection_s) &&
                   options_.fault_detection_s >= 0.0,
               "fault_detection_s must be finite and non-negative, got " +
                   std::to_string(options_.fault_detection_s));
  for (const auto& c : options_.fault_plan.crashes) {
    HPRS_REQUIRE(c.rank >= 0 && c.rank < size(),
                 "fault plan crashes rank " + std::to_string(c.rank) +
                     ", which does not exist on a " + std::to_string(size()) +
                     "-rank platform");
    HPRS_REQUIRE(std::isfinite(c.time_s) && c.time_s >= 0.0,
                 "crash time for rank " + std::to_string(c.rank) +
                     " must be finite and non-negative, got " +
                     std::to_string(c.time_s));
  }
  for (const auto& d : options_.fault_plan.degradations) {
    HPRS_REQUIRE(d.segment_a < platform_.segment_count() &&
                     d.segment_b < platform_.segment_count(),
                 "degradation names segment pair (" +
                     std::to_string(d.segment_a) + ", " +
                     std::to_string(d.segment_b) + ") but platform '" +
                     platform_.name() + "' has " +
                     std::to_string(platform_.segment_count()) + " segments");
    HPRS_REQUIRE(std::isfinite(d.factor) && d.factor > 0.0,
                 "degradation factor must be finite and positive, got " +
                     std::to_string(d.factor));
    HPRS_REQUIRE(std::isfinite(d.begin_s) && d.begin_s >= 0.0 &&
                     d.end_s >= d.begin_s,
                 "degradation window [" + std::to_string(d.begin_s) + ", " +
                     std::to_string(d.end_s) +
                     ") must satisfy 0 <= begin <= end");
  }
  const auto& loss = options_.fault_plan.loss;
  HPRS_REQUIRE(loss.probability >= 0.0 && loss.probability < 1.0,
               "message-loss probability must lie in [0, 1), got " +
                   std::to_string(loss.probability));
}

RunReport Engine::run(const std::function<void(Comm&)>& program) {
  obs::ScopedHostTimer run_timer("vmpi.engine.run");
  const int p = size();
  const auto pu = static_cast<std::size_t>(p);
  const bool thread_per_rank =
      options_.exec_mode == ExecMode::kThreadPerRank || env_thread_per_rank();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    obs_ = ObsCounters{};
    obs_scheduled_bytes_ = 0;
    timeline_.clear();
    stats_.assign(pu, RankStats{});
    trace_.assign(pu, {});
    nic_free_.assign(pu, 0.0);
    stage_pipe_free_.assign(pu, 0.0);
    stage_tiles_.assign(pu, 0);
    stage_bytes_.assign(pu, 0);
    xlink_free_.clear();
    mailbox_.clear();
    // The world communicator is group 0: every rank, rooted at the engine
    // root, over the unrestricted platform.  Sub-communicators registered
    // by a previous run are dropped here.
    groups_.clear();
    {
      std::vector<int> everyone(pu);
      for (int r = 0; r < p; ++r) everyone[static_cast<std::size_t>(r)] = r;
      auto world = std::make_unique<Group>(0, std::move(everyone),
                                           options_.root, platform_);
      world->snap_scope = "world";
      world_ = world.get();
      groups_.emplace(0, std::move(world));
    }
    rank_state_.assign(pu, RankState::kRunning);
    crash_time_.assign(pu, std::numeric_limits<double>::infinity());
    for (const auto& c : options_.fault_plan.crashes) {
      auto& t = crash_time_[static_cast<std::size_t>(c.rank)];
      t = std::min(t, c.time_s);
    }
    death_time_.assign(pu, std::numeric_limits<double>::infinity());
    crashed_count_ = 0;
    fault_log_.clear();
    recovery_.assign(pu, RecoveryStats{});
    in_recovery_.assign(pu, 0);
    waiting_.assign(pu, WaitInfo{});
    loss_seq_.clear();
    poisoned_ = false;
    poison_reason_.clear();
    if (thread_per_rank && !rank_cvs_) {
      rank_cvs_ = std::make_unique<std::condition_variable[]>(pu);
    }
  }

  std::exception_ptr first_error;
  std::mutex error_mutex;
  const auto rank_body = [&](int r) {
    Comm comm(*this, *world_, r);
    try {
      program(comm);
      // Mark completion and wake peers: a rank blocked on this one can now
      // conclude its operation will never match instead of timing out.
      std::lock_guard<std::mutex> lock(mutex_);
      rank_state_[static_cast<std::size_t>(r)] = RankState::kFinished;
      wake_all_locked();
    } catch (const RankCrashedSignal&) {
      // Fail-stop death, not an error: die_locked already recorded the
      // event, froze the clock, and woke the peers.
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(mutex_);
      if (!poisoned_) poison_locked("a rank threw an exception");
    }
  };

  if (thread_per_rank) {
    obs::ScopedHostTimer ranks_timer("vmpi.engine.ranks");
    std::vector<std::thread> threads;
    threads.reserve(pu);
    for (int r = 0; r < p; ++r) {
      threads.emplace_back([&rank_body, r] { rank_body(r); });
    }
    for (auto& t : threads) t.join();
  } else {
    obs::ScopedHostTimer ranks_timer("vmpi.engine.ranks");
    Executor exec;
    std::vector<std::function<void()>> bodies;
    bodies.reserve(pu);
    for (int r = 0; r < p; ++r) {
      bodies.emplace_back([&rank_body, r] { rank_body(r); });
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      executor_ = &exec;
    }
    try {
      exec.run(std::move(bodies), options_.executor_workers);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      executor_ = nullptr;
      throw;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    executor_ = nullptr;
  }

  if (first_error) std::rethrow_exception(first_error);

  RunReport report;
  report.root = options_.root;
  report.ranks = stats_;
  for (const auto& s : stats_) {
    report.total_time = std::max(report.total_time, s.clock);
  }
  if (options_.enable_trace) {
    for (auto& per_rank : trace_) {
      report.trace.insert(report.trace.end(), per_rank.begin(),
                          per_rank.end());
    }
    std::sort(report.trace.begin(), report.trace.end(),
              [](const TraceEvent& a, const TraceEvent& b) {
                if (a.begin != b.begin) return a.begin < b.begin;
                return a.rank < b.rank;
              });
  }
  // Fault log entries were appended in host order; sort on virtual keys so
  // the report is bit-identical across runs, schedules, and exec modes.
  std::sort(fault_log_.begin(), fault_log_.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              if (a.time_s != b.time_s) return a.time_s < b.time_s;
              if (a.kind != b.kind) return a.kind < b.kind;
              if (a.rank != b.rank) return a.rank < b.rank;
              if (a.peer != b.peer) return a.peer < b.peer;
              return a.attempt < b.attempt;
            });
  report.fault_events = fault_log_;
  for (const auto& r : recovery_) {
    report.recovery.detection_s += r.detection_s;
    report.recovery.redistribution_s += r.redistribution_s;
    report.recovery.recomputed_s += r.recomputed_s;
    report.recovery.recomputed_flops += r.recomputed_flops;
    report.recovery.detections += r.detections;
  }
  for (const auto& e : report.fault_events) {
    if (e.kind == FaultEventKind::kCrash) ++report.recovery.crashes;
    if (e.kind == FaultEventKind::kMessageLoss) ++report.recovery.messages_lost;
  }
  // The counter-plane timeline was appended under the engine mutex in
  // host order; finalize() imposes the canonical (t_s, scope, seq) order
  // so the export is bit-identical across runs and exec modes.
  timeline_.finalize();
  report.snapshots = std::move(timeline_);
  timeline_.clear();
  publish_metrics(report);
  return report;
}

void Engine::maybe_snapshot_group_locked(Group& group) {
  const obs::SnapshotConfig& cfg = options_.snapshot;
  if (!cfg.enabled || group.snap_scope.empty()) return;
  // The sample point is the collective boundary every member has reached:
  // the max member clock after the collective's accounting.
  double t = 0.0;
  for (const int m : group.members) {
    t = std::max(t, stats_[static_cast<std::size_t>(m)].clock);
  }
  if (!group.snap_init) {
    group.snap_cadence = obs::SnapshotCadence(
        cfg.interval_s, obs::kDefaultSnapshotSeed, group.id);
    group.snap_init = true;
  }
  if (!group.snap_cadence.due(t)) return;
  group.snap_cadence.advance_past(t);
  timeline_.append(group.snap_scope, t, group_pvars_locked(group));
}

obs::PvarSet Engine::group_pvars_locked(const Group& group) const {
  obs::PvarSet set;
  // Emit every collective kind unconditionally (zeros included) so each
  // scope's samples share one schema and the flat diff never sees a key
  // appear mid-run.
  for (std::size_t k = 1; k < 6; ++k) {
    const char* name = to_string(static_cast<CollectiveKind>(k));
    set.counter(std::string("collectives.") + name, group.coll_count[k]);
    set.counter(std::string("collective_wire_bytes.") + name,
                group.coll_bytes[k]);
  }
  set.counter("p2p.messages", group.p2p_messages);
  set.counter("p2p.wire_bytes", group.p2p_bytes);
  std::uint64_t flops = 0;
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  double compute = 0.0;
  double comm = 0.0;
  double wait = 0.0;
  for (const int m : group.members) {
    const RankStats& s = stats_[static_cast<std::size_t>(m)];
    flops += s.flops;
    sent += s.bytes_sent;
    received += s.bytes_received;
    compute += s.compute_par + s.compute_seq;
    comm += s.comm;
    wait += s.wait;
  }
  set.counter("ranks.flops", flops);
  set.counter("ranks.bytes_sent", sent);
  set.counter("ranks.bytes_received", received);
  set.level("ranks.compute_s", compute);
  set.level("ranks.comm_s", comm);
  set.level("ranks.wait_s", wait);
  return set;
}

void Engine::core_label_snapshots(Group& group, std::string_view label) {
  std::lock_guard<std::mutex> lock(mutex_);
  group.snap_scope = obs::sanitize_scope(label);
}

void Engine::core_snapshot_sample(int rank, std::string_view scope,
                                  const obs::PvarSet& pvars) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!options_.snapshot.enabled) return;
  timeline_.append(scope, stats_[static_cast<std::size_t>(rank)].clock,
                   pvars);
}

void Engine::publish_metrics(const RunReport& report) const {
  auto& metrics = obs::Metrics::instance();
  if (!metrics.enabled()) return;
  using obs::Domain;
  // Stable domain: everything below the host section derives from the
  // virtual protocol and byte/flop counts, so it is golden-comparable.
  // Groups live until the next run() starts, so their counters sum to the
  // run's traffic totals.
  std::uint64_t collectives[6] = {};
  std::uint64_t collective_bytes[6] = {};
  std::uint64_t p2p_messages = 0;
  std::uint64_t p2p_bytes = 0;
  for (const auto& [id, group] : groups_) {
    for (std::size_t k = 1; k < 6; ++k) {
      collectives[k] += group->coll_count[k];
      collective_bytes[k] += group->coll_bytes[k];
    }
    p2p_messages += group->p2p_messages;
    p2p_bytes += group->p2p_bytes;
  }
  for (std::size_t k = 1; k < 6; ++k) {
    if (collectives[k] == 0) continue;
    const std::string name = to_string(static_cast<CollectiveKind>(k));
    metrics.add("vmpi.collectives." + name, collectives[k]);
    metrics.add("vmpi.collective_wire_bytes." + name, collective_bytes[k]);
  }
  metrics.add("vmpi.p2p.messages", p2p_messages);
  metrics.add("vmpi.p2p.wire_bytes", p2p_bytes);
  for (std::size_t r = 0; r < report.ranks.size(); ++r) {
    const RankStats& s = report.ranks[r];
    metrics.add("vmpi.bytes_sent", s.bytes_sent, Domain::kStable,
                static_cast<int>(r));
    metrics.add("vmpi.bytes_received", s.bytes_received, Domain::kStable,
                static_cast<int>(r));
    metrics.add("vmpi.flops", s.flops, Domain::kStable, static_cast<int>(r));
  }
  std::uint64_t staged_tiles = 0;
  for (const auto t : stage_tiles_) staged_tiles += t;
  if (staged_tiles != 0) {
    for (std::size_t r = 0; r < stage_tiles_.size(); ++r) {
      if (stage_tiles_[r] == 0) continue;
      metrics.add("vmpi.stage.tiles", stage_tiles_[r], Domain::kStable,
                  static_cast<int>(r));
      metrics.add("vmpi.stage.bytes", stage_bytes_[r], Domain::kStable,
                  static_cast<int>(r));
    }
  }
  const RecoveryStats& rec = report.recovery;
  if (rec.crashes != 0 || rec.detections != 0 || rec.messages_lost != 0) {
    metrics.add("vmpi.fault.crashes", static_cast<std::uint64_t>(rec.crashes));
    metrics.add("vmpi.fault.heartbeat_detections",
                static_cast<std::uint64_t>(rec.detections));
    metrics.add("vmpi.fault.messages_lost", rec.messages_lost);
  }
  // Host domain: wakeup traffic and mailbox pressure depend on how the OS
  // interleaved the rank contexts; never golden-compared.
  metrics.add("vmpi.host.wakeups_targeted", obs_.wakeups_targeted,
              Domain::kHost);
  metrics.add("vmpi.host.wakeups_broadcast", obs_.wakeups_broadcast,
              Domain::kHost);
  metrics.gauge_max("vmpi.host.mailbox_depth_max",
                    static_cast<double>(obs_.mailbox_depth_max), Domain::kHost);
}

double Engine::core_now(int rank) const {
  // The rank only queries its own clock, which no other context mutates
  // while the rank is running; see the ownership note in the header.
  return stats_[static_cast<std::size_t>(rank)].clock;
}

void Engine::core_compute(int rank, std::uint64_t flops, Phase phase,
                          bool charge_launch) {
  maybe_crash(rank);
  const auto r = static_cast<std::size_t>(rank);
  auto& s = stats_[r];
  double seconds = static_cast<double>(flops) * 1e-6 *
                   platform_.cycle_time(static_cast<std::size_t>(rank));
  // Accelerated nodes pay a fixed host<->device launch latency on every
  // non-empty kernel invocation, on top of the (fast) on-device compute.
  // Plain CPU ranks charge exactly what they always did, so platforms
  // without accelerators reproduce historic clocks bit-for-bit.
  if (flops > 0 && charge_launch && platform_.accelerated(r)) {
    seconds += platform_.stage_latency_s(r);
  }
  if (options_.enable_trace && seconds > 0.0) {
    trace_[static_cast<std::size_t>(rank)].push_back(TraceEvent{
        rank, TraceKind::kCompute, s.clock, s.clock + seconds, flops});
  }
  s.clock += seconds;
  s.flops += flops;
  if (phase == Phase::kSequential) {
    s.compute_seq += seconds;
  } else {
    s.compute_par += seconds;
  }
  if (in_recovery_[r] != 0) {
    recovery_[r].recomputed_s += seconds;
    recovery_[r].recomputed_flops += flops;
  }
}

void Engine::core_stage(int rank, std::uint64_t bytes) {
  const auto r = static_cast<std::size_t>(rank);
  const double seconds =
      platform_.stage_seconds(r, static_cast<std::size_t>(bytes));
  if (seconds <= 0.0) return;  // plain CPU rank, or nothing to copy
  maybe_crash(rank);
  auto& s = stats_[r];
  if (options_.enable_trace) {
    trace_[r].push_back(TraceEvent{rank, TraceKind::kTransmit, s.clock,
                                   s.clock + seconds, bytes});
  }
  // The copy crosses the PCIe-style host<->device path, not the network:
  // charge comm time but no wire byte counters.
  s.clock += seconds;
  s.comm += seconds;
}

double Engine::core_stage_async(int rank, std::uint64_t bytes) {
  const auto r = static_cast<std::size_t>(rank);
  const double seconds =
      platform_.stage_seconds(r, static_cast<std::size_t>(bytes));
  if (seconds <= 0.0) return 0.0;  // plain CPU rank, or nothing to copy
  maybe_crash(rank);  // a dead rank never enqueues DMA
  auto& s = stats_[r];
  // One DMA engine per accelerator: copies serialize on the staging pipe
  // but run in the background, so the rank's clock does not advance here.
  const double begin = std::max(s.clock, stage_pipe_free_[r]);
  const double end = begin + seconds;
  stage_pipe_free_[r] = end;
  ++stage_tiles_[r];
  stage_bytes_[r] += bytes;
  if (options_.enable_trace) {
    trace_[r].push_back(TraceEvent{rank, TraceKind::kStage, begin, end, bytes});
  }
  return end;
}

void Engine::core_stage_wait(int rank, double until) {
  maybe_crash(rank);
  auto& s = stats_[static_cast<std::size_t>(rank)];
  if (until <= s.clock) return;  // the copy already finished in the shadow
  // The exposed remainder of the copy is host<->device transfer time the
  // rank actually waits out, so it lands in the comm bucket exactly like
  // the synchronous core_stage charge (no extra trace span: the kStage
  // interval from core_stage_async already covers it).
  s.comm += until - s.clock;
  s.clock = until;
}

// --- fault machinery --------------------------------------------------------

void Engine::maybe_crash(int rank) {
  const auto r = static_cast<std::size_t>(rank);
  if (stats_[r].clock < crash_time_[r]) return;
  std::lock_guard<std::mutex> lock(mutex_);
  die_locked(rank);
}

void Engine::die_locked(int rank) {
  const auto r = static_cast<std::size_t>(rank);
  rank_state_[r] = RankState::kCrashed;
  death_time_[r] = stats_[r].clock;
  ++crashed_count_;
  fault_log_.push_back(FaultEvent{FaultEventKind::kCrash, rank, -1,
                                  stats_[r].clock, 0});
  // A pending collective of a communicator containing this rank may have
  // been waiting only for it: it resolves now, without it.  Collectives on
  // groups the dead rank is *not* a member of are unaffected.
  for (const auto& [id, g] : groups_) {
    if (g->arrived > 0 &&
        std::find(g->members.begin(), g->members.end(), rank) !=
            g->members.end() &&
        resolvable_locked(*g)) {
      finish_collective_locked(*g);
    }
  }
  wake_all_locked();
  throw RankCrashedSignal{};
}

double Engine::effective_link_ms_locked(std::size_t s, std::size_t d,
                                        double at) const {
  double c = platform_.link_ms_per_mbit(s, d);
  if (options_.fault_plan.degradations.empty()) return c;
  const std::size_t seg_s = platform_.segment_of(s);
  const std::size_t seg_d = platform_.segment_of(d);
  const std::size_t lo = std::min(seg_s, seg_d);
  const std::size_t hi = std::max(seg_s, seg_d);
  for (const auto& deg : options_.fault_plan.degradations) {
    if (std::min(deg.segment_a, deg.segment_b) != lo ||
        std::max(deg.segment_a, deg.segment_b) != hi) {
      continue;
    }
    if (at >= deg.begin_s && at < deg.end_s) c *= deg.factor;
  }
  return c;
}

std::uint64_t Engine::loss_attempts_locked(int src, int dst, int tag) {
  const auto& loss = options_.fault_plan.loss;
  if (loss.probability <= 0.0) return 0;
  auto& seq = loss_seq_[std::make_tuple(src, dst, tag)];
  std::uint64_t lost = 0;
  for (;;) {
    // One decorrelated draw per attempt, a pure function of (seed, src,
    // dst, tag, sequence number) -- independent of host scheduling.
    std::uint64_t h = loss.seed;
    for (const std::uint64_t v :
         {static_cast<std::uint64_t>(src), static_cast<std::uint64_t>(dst),
          static_cast<std::uint64_t>(tag), seq}) {
      h = SplitMix64(h ^ v).next();
    }
    ++seq;
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    if (u >= loss.probability) break;
    ++lost;
  }
  return lost;
}

Packet Engine::match_recv_locked(int rank, int src, int tag, PendingSend& ps) {
  const auto su = static_cast<std::size_t>(src);
  const auto du = static_cast<std::size_t>(rank);
  auto& me = stats_[du];
  double ready = std::max(ps.ready, me.clock);
  const std::size_t bytes = ps.payload.bytes;
  const auto& loss = options_.fault_plan.loss;
  if (loss.probability > 0.0) {
    const std::uint64_t lost = loss_attempts_locked(src, rank, tag);
    for (std::uint64_t k = 0; k < lost; ++k) {
      fault_log_.push_back(
          FaultEvent{FaultEventKind::kMessageLoss, rank, src, ready, k});
      // Each lost attempt wastes one wire time (at the capacity in effect
      // when it started) plus the retry backoff before the next attempt.
      ready += transfer_seconds(bytes, effective_link_ms_locked(su, du, ready),
                                options_.per_message_latency_s) +
               kLossRetryBackoffS;
    }
  }
  double active = 0.0;
  const double end =
      schedule_transfer_locked(ps.channel, src, rank, bytes, ready, &active);
  // The message was sent over the communicator identified by ps.channel,
  // a group that lives until the run ends: file it on that group's
  // counters.
  Group& sent_over = *groups_.at(ps.channel);
  ++sent_over.p2p_messages;
  sent_over.p2p_bytes += bytes;
  account_transfer_locked(rank, end, active, 0, bytes);
  // Record the sender's half for it to apply itself when it wakes in
  // core_send, so a rank's stats stay written by its own context.
  Packet out = std::move(ps.payload);
  ps.matched = true;
  ps.sender_end = end;
  ps.active = active;
  ps.bytes = bytes;
  wake_rank_locked(src);
  return out;
}

void Engine::charge_detection_locked(int rank, int peer, double death_s) {
  const auto r = static_cast<std::size_t>(rank);
  auto& s = stats_[r];
  const double start = s.clock;
  // The failure is discovered one virtual heartbeat after the later of
  // "this rank started waiting" and "the peer actually died".
  const double detect = std::max(start, death_s) + options_.fault_detection_s;
  if (options_.enable_trace && detect > start) {
    trace_[r].push_back(TraceEvent{rank, TraceKind::kIdle, start, detect, 0});
  }
  s.wait += detect - start;
  s.clock = detect;
  recovery_[r].detection_s += detect - start;
  ++recovery_[r].detections;
  fault_log_.push_back(
      FaultEvent{FaultEventKind::kDetection, rank, peer, detect, 0});
}

void Engine::core_note_redistribution(int rank, double seconds) {
  if (seconds > 0.0) {
    recovery_[static_cast<std::size_t>(rank)].redistribution_s += seconds;
  }
}

void Engine::core_set_recovery(int rank, bool on) {
  auto& depth = in_recovery_[static_cast<std::size_t>(rank)];
  if (on) {
    ++depth;
  } else if (depth > 0) {
    --depth;
  }
}

std::string Engine::describe_blocked_locked() const {
  std::string out;
  const auto add = [&out](int rank, const std::string& what) {
    if (!out.empty()) out += "; ";
    out += "rank " + std::to_string(rank) + ": " + what;
  };
  for (int rnk = 0; rnk < size(); ++rnk) {
    const auto r = static_cast<std::size_t>(rnk);
    if (rank_state_[r] == RankState::kCrashed) {
      add(rnk, "crashed at t=" + std::to_string(death_time_[r]) + "s");
      continue;
    }
    if (rank_state_[r] == RankState::kFinished) continue;
    const WaitInfo& w = waiting_[r];
    const std::string peer = std::to_string(w.peer);
    const std::string tag = std::to_string(w.tag);
    switch (w.what) {
      case WaitInfo::What::kNone:
        break;
      case WaitInfo::What::kCollective:
        add(rnk, std::string("in collective ") + to_string(w.coll) +
                     " (root " + peer + ")");
        break;
      case WaitInfo::What::kSend:
        add(rnk, "send to rank " + peer + " (tag " + tag + ")");
        break;
      case WaitInfo::What::kRecv:
        add(rnk, "recv from rank " + peer + " (tag " + tag + ")");
        break;
    }
  }
  if (out.empty()) out = "no ranks blocked at engine operations";
  return "blocked ranks: [" + out + "]";
}

std::string Engine::peer_failure_locked(const char* op, int rank, int peer,
                                        int tag) const {
  const auto p = static_cast<std::size_t>(peer);
  std::string why =
      rank_state_[p] == RankState::kCrashed
          ? "crashed (fail-stop) at t=" + std::to_string(death_time_[p]) + "s"
          : "finished without matching it";
  return "rank " + std::to_string(rank) + ": " + op + " involving rank " +
         std::to_string(peer) + " (tag " + std::to_string(tag) +
         ") can never complete: rank " + std::to_string(peer) + " " + why +
         "; " + describe_blocked_locked();
}

// --- host-side blocking layer ----------------------------------------------

bool Engine::wait_rank(std::unique_lock<std::mutex>& lock, int rank,
                       std::chrono::steady_clock::time_point deadline) {
  if (executor_ != nullptr) return executor_->park(lock, deadline);
  return rank_cvs_[static_cast<std::size_t>(rank)].wait_until(lock, deadline) ==
         std::cv_status::timeout;
}

template <typename Ready>
void Engine::park_locked(std::unique_lock<std::mutex>& lock, int rank,
                         const WaitInfo& wait, Ready ready) {
  const auto r = static_cast<std::size_t>(rank);
  waiting_[r] = wait;
  const auto deadline = deadline_after(options_.deadlock_timeout_s);
  bool expired = false;
  while (!poisoned_ && !ready()) {
    if (expired) {
      // The deadline passed *and* a fresh predicate check still failed:
      // only now is it a deadlock (a wakeup racing the deadline is not).
      static constexpr const char* kStalled[] = {
          "", "collective operation timed out", "send never matched",
          "recv never matched"};
      poison_locked(std::string(kStalled[static_cast<std::size_t>(wait.what)]) +
                    " (virtual MPI deadlock?); " + describe_blocked_locked());
      break;
    }
    expired = wait_rank(lock, rank, deadline);
  }
  waiting_[r] = WaitInfo{};
  check_poison_locked();
}

void Engine::wake_rank_locked(int rank) {
  ++obs_.wakeups_targeted;
  if (executor_ != nullptr) {
    executor_->notify(static_cast<std::size_t>(rank));
  } else if (rank_cvs_) {
    rank_cvs_[static_cast<std::size_t>(rank)].notify_one();
  }
}

void Engine::wake_all_locked() {
  ++obs_.wakeups_broadcast;
  if (executor_ != nullptr) {
    executor_->notify_all();
  } else if (rank_cvs_) {
    const auto pu = static_cast<std::size_t>(size());
    for (std::size_t r = 0; r < pu; ++r) rank_cvs_[r].notify_all();
  }
}

// --- collectives -----------------------------------------------------------

void Engine::core_collective(Group& group, int rank, CollectiveKind kind,
                             int root, std::vector<Packet>& io,
                             std::vector<int>* failed) {
  maybe_crash(group.world_rank(rank));
  std::unique_lock<std::mutex> lock(mutex_);
  check_poison_locked();
  if (group.arrived == 0) {
    group.coll_kind = kind;
    group.coll_root = root;
  } else if (group.coll_kind != kind || group.coll_root != root) {
    poison_locked("mismatched collective operations across ranks");
    check_poison_locked();
  }
  ++group.arrived;
  // The contribution goes into the (empty) in slot and io keeps the slot's
  // buffer; the result comes back from the out slot the same way.
  const auto r = static_cast<std::size_t>(rank);
  group.in[r].swap(io);
  if (resolvable_locked(group)) {
    finish_collective_locked(group);
  } else {
    const std::uint64_t generation = group.generation;
    park_locked(lock, group.world_rank(rank),
                WaitInfo{WaitInfo::What::kCollective, group.world_rank(root),
                         0, kind},
                [&] { return group.generation != generation; });
  }
  io.swap(group.out[r]);
  // group.dead stays valid until this rank arrives at the group's next
  // collective: that one cannot resolve without it.
  if (failed != nullptr) {
    *failed = group.dead;
  } else if (!group.dead.empty()) {
    const int dead = group.world_rank(group.dead.front());
    throw Error(
        "rank " + std::to_string(dead) + " crashed (fail-stop) at t=" +
        std::to_string(death_time_[static_cast<std::size_t>(dead)]) +
        "s, so a collective on " +
        (group.id == 0 ? std::string("the world communicator")
                       : "communicator " + std::to_string(group.id)) +
        " resolved without it; only a Comm::tolerant() handle survives a "
        "member crash");
  }
}

bool Engine::resolvable_locked(const Group& group) const {
  int dead = 0;
  if (crashed_count_ > 0) {
    for (const int m : group.members) {
      dead += rank_state_[static_cast<std::size_t>(m)] == RankState::kCrashed;
    }
  }
  return group.arrived + dead == group.size();
}

void Engine::poison_locked(const std::string& reason) {
  poisoned_ = true;
  poison_reason_ = reason;
  wake_all_locked();
}

void Engine::check_poison_locked() const {
  if (poisoned_) {
    throw Error("virtual MPI engine aborted: " + poison_reason_);
  }
}

double Engine::schedule_transfer_locked(std::uint64_t channel, int src,
                                        int dst, std::size_t bytes,
                                        double ready, double* active_out) {
  const auto s = static_cast<std::size_t>(src);
  const auto d = static_cast<std::size_t>(dst);
  double start = std::max({ready, nic_free_[s], nic_free_[d]});
  const std::size_t seg_s = platform_.segment_of(s);
  const std::size_t seg_d = platform_.segment_of(d);
  const auto xkey = std::make_tuple(channel, std::min(seg_s, seg_d),
                                    std::max(seg_s, seg_d));
  if (seg_s != seg_d) {
    const auto it = xlink_free_.find(xkey);
    if (it != xlink_free_.end()) start = std::max(start, it->second);
  }
  // Capacity is evaluated at the transfer's start so degradation windows
  // affect schedule and accounting identically; without degradations this
  // is exactly the platform capacity.
  const double dur = transfer_seconds(bytes,
                                      effective_link_ms_locked(s, d, start),
                                      options_.per_message_latency_s);
  const double end = start + dur;
  nic_free_[s] = end;
  nic_free_[d] = end;
  if (seg_s != seg_d) xlink_free_[xkey] = end;
  if (active_out != nullptr) *active_out = dur;
  obs_scheduled_bytes_ += bytes;
  return end;
}

void Engine::account_transfer_locked(int rank, double end, double active,
                                     std::uint64_t bytes_out,
                                     std::uint64_t bytes_in) {
  auto& s = stats_[static_cast<std::size_t>(rank)];
  const double done = std::max(s.clock, end);
  const double elapsed = done - s.clock;
  s.comm += active;
  if (elapsed > active) s.wait += elapsed - active;
  s.bytes_sent += bytes_out;
  s.bytes_received += bytes_in;
  if (options_.enable_trace) {
    auto& log = trace_[static_cast<std::size_t>(rank)];
    // A wait of a rounding error still counts, but spans no time.
    if (elapsed > active && done - active > s.clock) {
      log.push_back(
          TraceEvent{rank, TraceKind::kIdle, s.clock, done - active, 0});
    }
    if (active > 0.0) {
      log.push_back(TraceEvent{
          rank, bytes_out > 0 ? TraceKind::kTransmit : TraceKind::kReceive,
          done - active, done, bytes_out > 0 ? bytes_out : bytes_in});
    }
  }
  s.clock = done;
}

void Engine::finish_collective_locked(Group& group) {
  // All rank indices in this function are *local* to the group; `gr`
  // translates to world ranks at the points that touch engine-wide state
  // (stats_, trace_, and the transfer scheduler).  For the world group the
  // translation is the identity, so world collectives cost exactly what
  // they did before sub-communicators existed.
  //
  // Only arrived members take part: slot i of the schedule is local rank
  // live[i], and the dead members' transfers are simply absent.  Without a
  // crash live[i] == i, so every schedule below is the fault-free one.
  const int p = group.size();
  std::vector<int>& live = group.live;
  live.clear();
  group.dead.clear();
  double last_death = 0.0;
  for (int r = 0; r < p; ++r) {
    const auto w = static_cast<std::size_t>(group.world_rank(r));
    if (crashed_count_ > 0 && rank_state_[w] == RankState::kCrashed) {
      group.dead.push_back(r);
      last_death = std::max(last_death, death_time_[w]);
    } else {
      live.push_back(r);
    }
  }
  const int q = static_cast<int>(live.size());
  const int root = group.coll_root;
  // The root's slot, or -1 when it died: then nothing fans out or in.
  const auto root_it = std::find(live.begin(), live.end(), root);
  const int rs = root_it == live.end()
                     ? -1
                     : static_cast<int>(root_it - live.begin());
  const auto obs_kind = static_cast<std::size_t>(group.coll_kind);
  const std::uint64_t obs_bytes_before = obs_scheduled_bytes_;
  const auto gr = [&group](int local) { return group.world_rank(local); };
  // Local rank r's contribution and result lists.
  const auto in = [&group](int r) -> std::vector<Packet>& {
    return group.in[static_cast<std::size_t>(r)];
  };
  const auto out = [&group](int r) -> std::vector<Packet>& {
    return group.out[static_cast<std::size_t>(r)];
  };
  // Local rank of the member `v` tree steps away from the root.
  const auto at = [&](int v) {
    return live[static_cast<std::size_t>((v + rs) % q)];
  };
  // Each kind below only lists its transfers, in the order it sends
  // them, and hands its payloads from `in` to `out`; the loop after the
  // switch times them all.  A dead root's collective leaves `out` empty.
  auto& transfers = group.transfers;
  transfers.clear();
  const auto send = [&transfers](int src, int dst, std::size_t bytes) {
    transfers.push_back(Group::Transfer{src, dst, bytes});
  };
  // Binomial subtrees: fill the tree-order prefix sums of `bytes_of`, then
  // subtree_bytes(v, n) is the byte sum of members [v, v + n).
  auto& subtree = group.subtree;
  const auto sum_subtrees = [&](const auto& bytes_of) {
    subtree.assign(1, 0);
    for (int v = 0; v < q; ++v) {
      subtree.push_back(subtree.back() + bytes_of(at(v)));
    }
  };
  const auto subtree_bytes = [&subtree, q](int v, int n) {
    return subtree[static_cast<std::size_t>(std::min(v + n, q))] -
           subtree[static_cast<std::size_t>(v)];
  };

  switch (group.coll_kind) {
    case CollectiveKind::kBarrier: {
      double t = 0.0;
      for (const int r : live) {
        t = std::max(t, stats_[static_cast<std::size_t>(gr(r))].clock);
      }
      for (const int r : live) {
        const int w = gr(r);
        auto& s = stats_[static_cast<std::size_t>(w)];
        if (options_.enable_trace && t > s.clock) {
          trace_[static_cast<std::size_t>(w)].push_back(
              TraceEvent{w, TraceKind::kIdle, s.clock, t, 0});
        }
        s.wait += t - s.clock;
        s.clock = t;
      }
      break;
    }

    case CollectiveKind::kBcast: {
      if (rs < 0) break;
      HPRS_ASSERT(in(root).size() == 1);
      Packet& payload = in(root).front();
      const std::size_t bytes = payload.bytes;
      if (platform_.switched_fabric()) {
        // Binomial-tree broadcast (cluster message-passing layers).  In
        // step k every holder vsrc < 2^k forwards to vsrc + 2^k, where v
        // counts members from the root.
        for (int step = 1; step < q; step <<= 1) {
          for (int vsrc = 0; vsrc < step && vsrc + step < q; ++vsrc) {
            send(at(vsrc), at(vsrc + step), bytes);
          }
        }
      } else {
        // Linear broadcast: the root transmits to each worker in rank
        // order; its NIC serializes the sends (network-of-workstations
        // behavior).
        for (const int dst : live) {
          if (dst != root) send(root, dst, bytes);
        }
      }
      // Freeze the root's payload once (a move, not a copy); every
      // destination takes a refcounted view, so the fan-out performs zero
      // deep copies regardless of p.  With one live member there is no
      // fan-out and the root's value passes through exclusively.
      if (q > 1) {
        const auto shared = payload.share();
        for (const auto& t : transfers) {
          out(t.dst).push_back(Packet::shared_view(shared, bytes));
        }
      }
      out(root).push_back(std::move(payload));
      break;
    }

    case CollectiveKind::kGather: {
      if (rs < 0) break;
      const auto bytes_of = [&](int r) { return in(r).front().bytes; };
      if (platform_.switched_fabric()) {
        // Binomial-tree gather: in step k, every vrank whose low k bits are
        // zero and whose k-th bit is one forwards its accumulated buffer --
        // its subtree's bytes -- to vrank - 2^k.
        sum_subtrees(bytes_of);
        for (int step = 1; step < q; step <<= 1) {
          for (int vsrc = step; vsrc < q; vsrc += 2 * step) {
            send(at(vsrc), at(vsrc - step), subtree_bytes(vsrc, step));
          }
        }
      } else {
        // Workers transmit to the root in rank order; the root's NIC is the
        // serializing resource.
        for (const int src : live) {
          if (src != root) send(src, root, bytes_of(src));
        }
      }
      // One packet per member in rank order; a dead member never arrived,
      // so its slot is empty and so is its packet.
      for (int r = 0; r < p; ++r) {
        auto& mine = in(r);
        out(root).push_back(mine.empty() ? Packet{} : std::move(mine.front()));
      }
      break;
    }

    case CollectiveKind::kScatter: {
      if (rs < 0) break;
      auto& parts = in(root);
      HPRS_ASSERT(parts.size() == static_cast<std::size_t>(p));
      const auto bytes_of = [&parts](int r) {
        return parts[static_cast<std::size_t>(r)].bytes;
      };
      if (platform_.switched_fabric()) {
        // Binomial-tree scatter (mirror of the tree gather): holders pass
        // the byte sum of the destination subtree down in halving steps.
        sum_subtrees(bytes_of);
        int top = 1;
        while (top < q) top <<= 1;
        for (int step = top >> 1; step >= 1; step >>= 1) {
          for (int vdst = step; vdst < q; vdst += 2 * step) {
            send(at(vdst - step), at(vdst), subtree_bytes(vdst, step));
          }
        }
      } else {
        for (const int dst : live) {
          if (dst != root) send(root, dst, bytes_of(dst));
        }
      }
      for (const int dst : live) {
        out(dst).push_back(std::move(parts[static_cast<std::size_t>(dst)]));
      }
      break;
    }

    case CollectiveKind::kExchange: {
      // Every send in (src, send) order, re-addressed from its destination
      // to its source; packets for dead members are dropped.
      for (const int src : live) {
        for (Packet& packet : in(src)) {
          const int dst = packet.peer;
          HPRS_ASSERT(dst >= 0 && dst < p && dst != src);
          if (std::binary_search(group.dead.begin(), group.dead.end(), dst)) {
            continue;
          }
          send(src, dst, packet.bytes);
          packet.peer = src;
          out(dst).push_back(std::move(packet));
        }
      }
      break;
    }

    case CollectiveKind::kNone:
      HPRS_ASSERT(false);
  }

  // The one transfer loop.  A transfer starts from its sender's clock --
  // its arrival, or the end of its previous transfer here, which its NIC
  // is busy until anyway -- and each side is charged from its own clock.
  for (const auto& t : transfers) {
    const int src = gr(t.src);
    const int dst = gr(t.dst);
    const double ready = stats_[static_cast<std::size_t>(src)].clock;
    double active = 0.0;
    const double end =
        schedule_transfer_locked(group.id, src, dst, t.bytes, ready, &active);
    account_transfer_locked(src, end, active, t.bytes, 0);
    account_transfer_locked(dst, end, active, 0, t.bytes);
  }
  for (const int r : live) in(r).clear();

  // Every survivor learns the same dead set one heartbeat after the last
  // death: the collective's failure notification (ULFM).
  if (!group.dead.empty()) {
    const int first_dead = gr(group.dead.front());
    for (const int r : live) {
      charge_detection_locked(gr(r), first_dead, last_death);
    }
  }

  ++group.coll_count[obs_kind];
  group.coll_bytes[obs_kind] += obs_scheduled_bytes_ - obs_bytes_before;
  // Sample the group's counter plane while every member is still blocked
  // at this boundary: the values are then a pure function of the group's
  // program order and virtual clocks (DESIGN.md §15).
  maybe_snapshot_group_locked(group);
  group.coll_kind = CollectiveKind::kNone;
  group.coll_root = -1;
  group.arrived = 0;
  ++group.generation;
  wake_all_locked();
}

Group& Engine::ensure_group(std::uint64_t id, const std::vector<int>& members,
                            int root_local, const Group* parent) {
  HPRS_REQUIRE(!members.empty(), "a communicator group needs at least one member");
  for (const int m : members) {
    HPRS_REQUIRE(m >= 0 && m < size(),
                 "communicator member rank " + std::to_string(m) +
                     " does not exist on a " + std::to_string(size()) +
                     "-rank platform");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = groups_.find(id);
  if (it != groups_.end()) {
    HPRS_REQUIRE(it->second->members == members,
                 "communicator id collision: group " + std::to_string(id) +
                     " already exists with a different member list");
    return *it->second;
  }
  // Restricted platform view: the members' own specs (segment indices
  // preserved) over the full segment-capacity matrix, so w_i and c_ij keep
  // their world values and the WEA sees exactly this communicator.
  std::vector<simnet::ProcessorSpec> specs;
  specs.reserve(members.size());
  for (const int m : members) {
    specs.push_back(platform_.processor(static_cast<std::size_t>(m)));
  }
  std::vector<std::vector<double>> seg(platform_.segment_count());
  for (std::size_t a = 0; a < platform_.segment_count(); ++a) {
    seg[a].resize(platform_.segment_count());
    for (std::size_t b = 0; b < platform_.segment_count(); ++b) {
      seg[a][b] = platform_.segment_capacity_ms_per_mbit(a, b);
    }
  }
  simnet::Platform sub(platform_.name(), std::move(specs), std::move(seg),
                       platform_.switched_fabric());
  auto group = std::make_unique<Group>(id, members, root_local, std::move(sub));
  if (parent != nullptr) group->snap_scope = parent->snap_scope;
  Group& ref = *group;
  groups_.emplace(id, std::move(group));
  return ref;
}

void Engine::core_sleep_until(int rank, double deadline) {
  maybe_crash(rank);
  const auto r = static_cast<std::size_t>(rank);
  auto& s = stats_[r];
  if (deadline <= s.clock) return;
  if (options_.enable_trace) {
    trace_[r].push_back(
        TraceEvent{rank, TraceKind::kIdle, s.clock, deadline, 0});
  }
  s.wait += deadline - s.clock;
  s.clock = deadline;
  maybe_crash(rank);
}

RankStats Engine::core_stats(int rank) const {
  // Rank-confined like core_now: a rank only snapshots its own stats.
  return stats_[static_cast<std::size_t>(rank)];
}

// --- point-to-point ---------------------------------------------------------

bool Engine::peer_lost_locked(const char* op, int rank, int peer, int tag,
                              bool tolerant) {
  const RankState state = rank_state_[static_cast<std::size_t>(peer)];
  if (state == RankState::kRunning) return false;
  // Finishing without matching is a protocol bug, not a failure the caller
  // can recover from; only a tolerant op survives a crash.
  if (!tolerant || state == RankState::kFinished) {
    poison_locked(peer_failure_locked(op, rank, peer, tag));
  }
  return true;
}

bool Engine::core_send(int rank, int dst, int tag, Packet payload,
                       std::uint64_t channel, bool tolerant) {
  HPRS_REQUIRE(dst >= 0 && dst < size() && dst != rank,
               "invalid destination rank");
  maybe_crash(rank);
  std::unique_lock<std::mutex> lock(mutex_);
  check_poison_locked();
  auto& queue = mailbox_[{rank, dst, tag}];
  PendingSend ps;
  ps.payload = std::move(payload);
  ps.ready = stats_[static_cast<std::size_t>(rank)].clock;
  ps.channel = channel;
  queue.push_back(std::move(ps));
  obs_.mailbox_depth_max = std::max<std::uint64_t>(obs_.mailbox_depth_max,
                                                   queue.size());
  auto it = std::prev(queue.end());
  wake_rank_locked(dst);

  // Rendezvous: block until the receiver matches and times the transfer.
  park_locked(lock, rank, WaitInfo{WaitInfo::What::kSend, dst, tag}, [&] {
    return it->matched || peer_lost_locked("send", rank, dst, tag, tolerant);
  });
  if (!it->matched) {
    // The receiver crashed without matching: withdraw the posting and
    // charge the virtual heartbeat that discovered the death.
    queue.erase(it);
    charge_detection_locked(rank, dst,
                            death_time_[static_cast<std::size_t>(dst)]);
    return false;
  }
  // Apply this side of the transfer (the receiver computed it at match
  // time but deliberately left the sender's stats to the sender).
  account_transfer_locked(rank, it->sender_end, it->active, it->bytes, 0);
  queue.erase(it);
  return true;
}

std::optional<Packet> Engine::core_recv(int rank, int src, int tag,
                                        bool tolerant) {
  HPRS_REQUIRE(src >= 0 && src < size() && src != rank, "invalid source rank");
  maybe_crash(rank);
  std::unique_lock<std::mutex> lock(mutex_);
  const auto key = std::make_tuple(src, rank, tag);
  PendingSend* posted = nullptr;
  park_locked(lock, rank, WaitInfo{WaitInfo::What::kRecv, src, tag}, [&] {
    // A message posted before the sender's death is still delivered (the
    // data already left the sender); only silence is a failure.
    if (const auto q = mailbox_.find(key); q != mailbox_.end()) {
      const auto it =
          std::find_if(q->second.begin(), q->second.end(),
                       [](const PendingSend& ps) { return !ps.matched; });
      if (it != q->second.end()) posted = &*it;
    }
    return posted != nullptr ||
           peer_lost_locked("recv", rank, src, tag, tolerant);
  });
  if (posted == nullptr) {
    // The sender crashed with nothing pending: charge the virtual
    // heartbeat that discovered the death.
    charge_detection_locked(rank, src,
                            death_time_[static_cast<std::size_t>(src)]);
    return std::nullopt;
  }
  return match_recv_locked(rank, src, tag, *posted);
}

}  // namespace hprs::vmpi
