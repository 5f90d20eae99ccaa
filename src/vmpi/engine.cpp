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

/// resize-without-deallocating: keeps each element's capacity so collective
/// scratch survives across runs as well as across generations.
template <typename Vec>
void resize_and_clear(Vec& v, std::size_t n) {
  v.resize(n);
  for (auto& e : v) e.clear();
}

}  // namespace

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
  HPRS_REQUIRE(std::isfinite(loss.retry_backoff_s) &&
                   loss.retry_backoff_s >= 0.0,
               "message-loss retry backoff must be finite and non-negative, "
               "got " +
                   std::to_string(loss.retry_backoff_s));
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
      world->inputs.assign(pu, Packet{});
      world->single_out.assign(pu, Packet{});
      resize_and_clear(world->scatter_parts, pu);
      resize_and_clear(world->exchange_in, pu);
      resize_and_clear(world->multi_out, pu);
      resize_and_clear(world->exchange_out, pu);
      world_ = world.get();
      groups_.emplace(0, std::move(world));
    }
    resize_and_clear(gather_pool_, pu);
    resize_and_clear(exchange_pool_, pu);
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
    Executor::Config cfg;
    cfg.workers = options_.executor_workers;
    if (options_.fiber_stack_bytes != 0) {
      cfg.stack_bytes = options_.fiber_stack_bytes;
    }
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
      exec.run(std::move(bodies), cfg);
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
  if (!cfg.enabled) return;
  // The sample point is the collective boundary every member has reached:
  // the max member clock after the collective's accounting.
  double t = 0.0;
  for (const int m : group.members) {
    t = std::max(t, stats_[static_cast<std::size_t>(m)].clock);
  }
  if (!group.snap_init) {
    group.snap_cadence = obs::SnapshotCadence(cfg.interval_s, cfg.seed,
                                              group.id);
    group.snap_init = true;
  }
  if (!group.snap_cadence.due(t)) return;
  group.snap_cadence.advance_past(t);
  timeline_.append(group.snap_scope, t, group_pvars_locked(group));
}

obs::PvarSet Engine::group_pvars_locked(const Group& group) const {
  static constexpr const char* kCollNames[] = {"none",    "barrier", "bcast",
                                               "gather",  "scatter",
                                               "exchange"};
  obs::PvarSet set;
  // Emit every collective kind unconditionally (zeros included) so each
  // scope's samples share one schema and the flat diff never sees a key
  // appear mid-run.
  for (std::size_t k = 1; k < 6; ++k) {
    set.counter(std::string("collectives.") + kCollNames[k],
                group.coll_count[k]);
    set.counter(std::string("collective_wire_bytes.") + kCollNames[k],
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
  static constexpr const char* kCollNames[] = {"none",    "barrier", "bcast",
                                               "gather",  "scatter", "exchange"};
  for (std::size_t k = 1; k < 6; ++k) {
    if (obs_.collectives[k] == 0) continue;
    const std::string name = kCollNames[k];
    metrics.add("vmpi.collectives." + name, obs_.collectives[k]);
    metrics.add("vmpi.collective_wire_bytes." + name,
                obs_.collective_wire_bytes[k]);
  }
  metrics.add("vmpi.p2p.messages", obs_.p2p_messages);
  metrics.add("vmpi.p2p.wire_bytes", obs_.p2p_wire_bytes);
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
  const auto r = static_cast<std::size_t>(rank);
  auto& s = stats_[r];
  // Fail-stop boundary: crash_time_ is immutable during the run and the
  // clock is rank-confined, so this check needs no lock until it fires.
  if (s.clock >= crash_time_[r]) {
    std::lock_guard<std::mutex> lock(mutex_);
    die_locked(rank);
  }
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
  auto& s = stats_[r];
  // Same fail-stop boundary as core_compute: crash_time_ is immutable
  // during the run and the clock is rank-confined.
  if (s.clock >= crash_time_[r]) {
    std::lock_guard<std::mutex> lock(mutex_);
    die_locked(rank);
  }
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
  auto& s = stats_[r];
  // Same fail-stop boundary as core_stage: a dead rank never enqueues DMA.
  if (s.clock >= crash_time_[r]) {
    std::lock_guard<std::mutex> lock(mutex_);
    die_locked(rank);
  }
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
  const auto r = static_cast<std::size_t>(rank);
  auto& s = stats_[r];
  if (s.clock >= crash_time_[r]) {
    std::lock_guard<std::mutex> lock(mutex_);
    die_locked(rank);
  }
  if (until <= s.clock) return;  // the copy already finished in the shadow
  // The exposed remainder of the copy is host<->device transfer time the
  // rank actually waits out, so it lands in the comm bucket exactly like
  // the synchronous core_stage charge (no extra trace span: the kStage
  // interval from core_stage_async already covers it).
  s.comm += until - s.clock;
  s.clock = until;
}

// --- fault machinery --------------------------------------------------------

void Engine::maybe_crash_locked(int rank) {
  const auto r = static_cast<std::size_t>(rank);
  if (rank_state_[r] == RankState::kRunning &&
      stats_[r].clock >= crash_time_[r]) {
    die_locked(rank);
  }
}

void Engine::die_locked(int rank) {
  const auto r = static_cast<std::size_t>(rank);
  rank_state_[r] = RankState::kCrashed;
  death_time_[r] = stats_[r].clock;
  ++crashed_count_;
  fault_log_.push_back(FaultEvent{FaultEventKind::kCrash, rank, -1,
                                  stats_[r].clock, 0});
  // Peers already committed to a collective on a communicator containing
  // this rank will never see it join; that communicator -- and with it the
  // run -- cannot proceed.  Collectives on groups the dead rank is *not* a
  // member of are unaffected.
  bool poisons_collective = false;
  for (const auto& [id, g] : groups_) {
    if (g->arrived > 0 &&
        std::find(g->members.begin(), g->members.end(), rank) !=
            g->members.end()) {
      poisons_collective = true;
      break;
    }
  }
  if (poisons_collective && !poisoned_) {
    poison_locked("rank " + std::to_string(rank) +
                  " crashed (fail-stop) at t=" +
                  std::to_string(stats_[r].clock) +
                  "s during a pending collective; " +
                  describe_blocked_locked());
  } else {
    wake_all_locked();
  }
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
               loss.retry_backoff_s;
    }
  }
  double active = 0.0;
  const double end =
      schedule_transfer_locked(ps.channel, src, rank, bytes, ready, &active);
  ++obs_.p2p_messages;
  obs_.p2p_wire_bytes += bytes;
  // The message was sent over the communicator identified by ps.channel;
  // file it on that group's counter plane (the group can already be gone
  // only for world-tag traffic of a finished run, never mid-collective).
  if (auto git = groups_.find(ps.channel); git != groups_.end()) {
    ++git->second->p2p_messages;
    git->second->p2p_bytes += bytes;
  }
  account_transfer_locked(rank, me.clock, end, active, 0, bytes);
  // Record the sender's half for it to apply itself when it wakes
  // (core_send / core_try_send), so a rank's stats stay written by its own
  // context.
  Packet out = std::move(ps.payload);
  ps.matched = true;
  ps.sender_end = end;
  ps.active = active;
  ps.bytes = bytes;
  wake_rank_locked(src);
  return out;
}

void Engine::charge_detection_locked(int rank, int peer, double timeout_s) {
  const auto r = static_cast<std::size_t>(rank);
  auto& s = stats_[r];
  const double start = s.clock;
  // The failure is discovered one virtual heartbeat after the later of
  // "this rank started waiting" and "the peer actually died".
  const double detect =
      std::max(start, death_time_[static_cast<std::size_t>(peer)]) + timeout_s;
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
  static constexpr const char* kCollNames[] = {"none",    "barrier", "bcast",
                                               "gather",  "scatter", "exchange"};
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
        add(rnk, std::string("in collective ") +
                     kCollNames[static_cast<std::size_t>(w.coll)] + " (root " +
                     peer + ")");
        break;
      case WaitInfo::What::kSend:
        add(rnk, "send to rank " + peer + " (tag " + tag + ")");
        break;
      case WaitInfo::What::kRecv:
        add(rnk, "recv from rank " + peer + " (tag " + tag + ")");
        break;
      case WaitInfo::What::kTrySend:
        add(rnk, "try_send to rank " + peer + " (tag " + tag + ")");
        break;
      case WaitInfo::What::kTryRecv:
        add(rnk, "try_recv from rank " + peer + " (tag " + tag + ")");
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

void Engine::begin_collective(Group& group, int rank, CollectiveKind kind,
                              int root) {
  const int grank = group.world_rank(rank);
  maybe_crash_locked(grank);
  check_poison_locked();
  if (crashed_count_ > 0) {
    // A collective needs every member of its communicator; fail fast when
    // one is dead (instead of a wall-clock timeout) so non-fault-tolerant
    // programs stay fast to diagnose.  Fault-tolerant code uses
    // try_send/try_recv and never reaches a collective after a crash.
    // Crashes of non-members leave this group's collectives untouched.
    for (const int m : group.members) {
      if (rank_state_[static_cast<std::size_t>(m)] == RankState::kCrashed) {
        poison_locked(
            group.id == 0
                ? "a full-world collective can never complete after a "
                  "fail-stop crash; " +
                      describe_blocked_locked()
                : "a collective on a sub-communicator with a crashed member "
                  "can never complete; " +
                      describe_blocked_locked());
        check_poison_locked();
      }
    }
  }
  if (group.arrived == 0) {
    group.coll_kind = kind;
    group.coll_root = root;
  } else if (group.coll_kind != kind || group.coll_root != root) {
    poison_locked("mismatched collective operations across ranks");
    check_poison_locked();
  }
  ++group.arrived;
}

void Engine::wait_for_generation(std::unique_lock<std::mutex>& lock,
                                 Group& group, int rank,
                                 std::uint64_t generation) {
  const int grank = group.world_rank(rank);
  // Lock held since begin_collective, so the group's coll_kind/coll_root
  // still describe the collective this rank is parked in.
  waiting_[static_cast<std::size_t>(grank)] =
      WaitInfo{WaitInfo::What::kCollective, group.world_rank(group.coll_root),
               0, group.coll_kind};
  const auto deadline = deadline_after(options_.deadlock_timeout_s);
  bool deadline_expired = false;
  while (group.generation == generation && !poisoned_) {
    if (deadline_expired) {
      // The deadline passed *and* a fresh predicate check still failed:
      // only now is it a deadlock (a wakeup racing the deadline is not).
      poison_locked("collective operation timed out (virtual MPI deadlock?); " +
                    describe_blocked_locked());
      break;
    }
    deadline_expired = wait_rank(lock, grank, deadline);
  }
  check_poison_locked();
  waiting_[static_cast<std::size_t>(grank)] = WaitInfo{};
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

void Engine::account_transfer_locked(int rank, double ready, double end,
                                     double active, std::uint64_t bytes_out,
                                     std::uint64_t bytes_in) {
  auto& s = stats_[static_cast<std::size_t>(rank)];
  s.comm += active;
  const double elapsed = end - ready;
  if (elapsed > active) s.wait += elapsed - active;
  s.bytes_sent += bytes_out;
  s.bytes_received += bytes_in;
  if (options_.enable_trace) {
    auto& log = trace_[static_cast<std::size_t>(rank)];
    if (elapsed > active) {
      log.push_back(
          TraceEvent{rank, TraceKind::kIdle, ready, end - active, 0});
    }
    if (active > 0.0) {
      log.push_back(TraceEvent{
          rank, bytes_out > 0 ? TraceKind::kTransmit : TraceKind::kReceive,
          end - active, end, bytes_out > 0 ? bytes_out : bytes_in});
    }
  }
  s.clock = std::max(s.clock, end);
}

void Engine::finish_collective_locked(Group& group) {
  // All rank indices in this function are *local* to the group; `gr`
  // translates to world ranks at the points that touch engine-wide state
  // (stats_, trace_, and the transfer scheduler).  For the world group the
  // translation is the identity, so world collectives cost exactly what
  // they did before sub-communicators existed.
  const int p = group.size();
  const int root = group.coll_root;
  const auto ru = static_cast<std::size_t>(root);
  const auto obs_kind = static_cast<std::size_t>(group.coll_kind);
  const std::uint64_t obs_bytes_before = obs_scheduled_bytes_;
  const auto gr = [&group](int local) { return group.world_rank(local); };

  std::vector<double> arrival(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    arrival[static_cast<std::size_t>(r)] =
        stats_[static_cast<std::size_t>(gr(r))].clock;
  }

  switch (group.coll_kind) {
    case CollectiveKind::kBarrier: {
      double t = 0.0;
      for (double a : arrival) t = std::max(t, a);
      for (int r = 0; r < p; ++r) {
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
      Packet& payload = group.inputs[ru];
      const std::size_t bytes = payload.bytes;
      // Freeze the root's payload once (a move, not a copy); every
      // destination below takes a refcounted view, so the fan-out performs
      // zero deep copies regardless of p.  With p == 1 there is no fan-out
      // and the root's value passes through exclusively (pure move).
      std::shared_ptr<const std::any> shared;
      if (p > 1) shared = payload.share();
      if (platform_.switched_fabric()) {
        // Binomial-tree broadcast (cluster message-passing layers).  vrank
        // is the rank rotated so the root is 0; in step k every holder
        // vsrc < 2^k forwards to vsrc + 2^k.
        std::vector<double> known(static_cast<std::size_t>(p), 0.0);
        known[0] = arrival[ru];
        for (int step = 1; step < p; step <<= 1) {
          for (int vsrc = 0; vsrc < step && vsrc + step < p; ++vsrc) {
            const int vdst = vsrc + step;
            const int src = (vsrc + root) % p;
            const int dst = (vdst + root) % p;
            const auto du = static_cast<std::size_t>(dst);
            double active = 0.0;
            const double end = schedule_transfer_locked(group.id, 
                gr(src), gr(dst), bytes, known[static_cast<std::size_t>(vsrc)],
                &active);
            account_transfer_locked(gr(src),
                                    known[static_cast<std::size_t>(vsrc)],
                                    end, active, bytes, 0);
            account_transfer_locked(gr(dst), arrival[du],
                                    std::max(end, arrival[du]), active, 0,
                                    bytes);
            known[static_cast<std::size_t>(vdst)] = std::max(end, arrival[du]);
            group.single_out[du] = Packet::shared_view(shared, bytes);
          }
        }
      } else {
        // Linear broadcast: the root transmits to each worker in rank
        // order; its NIC serializes the sends (network-of-workstations
        // behavior).
        double root_busy_from = arrival[ru];
        for (int dst = 0; dst < p; ++dst) {
          if (dst == root) continue;
          const auto du = static_cast<std::size_t>(dst);
          double active = 0.0;
          const double end = schedule_transfer_locked(group.id, gr(root), gr(dst), bytes,
                                                      arrival[ru], &active);
          account_transfer_locked(gr(dst), arrival[du],
                                  std::max(end, arrival[du]), active, 0,
                                  bytes);
          account_transfer_locked(gr(root), root_busy_from, end, active, bytes,
                                  0);
          root_busy_from = end;
          group.single_out[du] = Packet::shared_view(shared, bytes);
        }
      }
      group.single_out[ru] = std::move(group.inputs[ru]);
      break;
    }

    case CollectiveKind::kGather: {
      auto& gathered = group.multi_out[ru];
      gathered.resize(static_cast<std::size_t>(p));
      if (platform_.switched_fabric()) {
        // Binomial-tree gather: in step k, every vrank whose low k bits are
        // zero and whose k-th bit is one forwards its accumulated buffer to
        // vrank - 2^k.  Intermediate nodes concatenate, so transferred
        // bytes grow with the subtree.
        std::vector<double> ready(static_cast<std::size_t>(p));
        std::vector<std::size_t> acc(static_cast<std::size_t>(p));
        for (int v = 0; v < p; ++v) {
          const int r = (v + root) % p;
          ready[static_cast<std::size_t>(v)] =
              arrival[static_cast<std::size_t>(r)];
          acc[static_cast<std::size_t>(v)] =
              group.inputs[static_cast<std::size_t>(r)].bytes;
        }
        for (int step = 1; step < p; step <<= 1) {
          for (int vsrc = step; vsrc < p; vsrc += 2 * step) {
            const int vdst = vsrc - step;
            const int src = (vsrc + root) % p;
            const int dst = (vdst + root) % p;
            const std::size_t bytes = acc[static_cast<std::size_t>(vsrc)];
            double active = 0.0;
            const double end = schedule_transfer_locked(group.id, 
                gr(src), gr(dst), bytes, ready[static_cast<std::size_t>(vsrc)],
                &active);
            account_transfer_locked(gr(src),
                                    ready[static_cast<std::size_t>(vsrc)],
                                    end, active, bytes, 0);
            account_transfer_locked(gr(dst),
                                    ready[static_cast<std::size_t>(vdst)],
                                    end, active, 0, bytes);
            ready[static_cast<std::size_t>(vdst)] =
                std::max(ready[static_cast<std::size_t>(vdst)], end);
            acc[static_cast<std::size_t>(vdst)] += bytes;
          }
        }
        for (int src = 0; src < p; ++src) {
          gathered[static_cast<std::size_t>(src)] =
              std::move(group.inputs[static_cast<std::size_t>(src)]);
        }
      } else {
        // Workers transmit to the root in rank order; the root's NIC is the
        // serializing resource.
        double root_busy_from = arrival[ru];
        for (int src = 0; src < p; ++src) {
          const auto su = static_cast<std::size_t>(src);
          if (src == root) {
            gathered[su] = std::move(group.inputs[su]);
            continue;
          }
          const std::size_t bytes = group.inputs[su].bytes;
          double active = 0.0;
          const double end = schedule_transfer_locked(group.id, gr(src), gr(root), bytes,
                                                      arrival[su], &active);
          account_transfer_locked(gr(src), arrival[su], end, active, bytes, 0);
          account_transfer_locked(gr(root), root_busy_from, end, active, 0,
                                  bytes);
          root_busy_from = end;
          gathered[su] = std::move(group.inputs[su]);
        }
      }
      break;
    }

    case CollectiveKind::kScatter: {
      auto& parts = group.scatter_parts[ru];
      HPRS_ASSERT(parts.size() == static_cast<std::size_t>(p));
      if (platform_.switched_fabric()) {
        // Binomial-tree scatter (mirror of the tree gather): holders pass
        // the byte-sum of the destination subtree down in halving steps.
        const auto vbytes = [&](int v) {
          return parts[static_cast<std::size_t>((v + root) % p)].bytes;
        };
        std::vector<double> known(static_cast<std::size_t>(p), 0.0);
        known[0] = arrival[ru];
        int top = 1;
        while (top < p) top <<= 1;
        for (int step = top >> 1; step >= 1; step >>= 1) {
          for (int vsrc = 0; vsrc < p; vsrc += 2 * step) {
            const int vdst = vsrc + step;
            if (vdst >= p) continue;
            std::size_t bytes = 0;
            for (int v = vdst; v < std::min(vdst + step, p); ++v) {
              bytes += vbytes(v);
            }
            const int src = (vsrc + root) % p;
            const int dst = (vdst + root) % p;
            const auto du = static_cast<std::size_t>(dst);
            double active = 0.0;
            const double end = schedule_transfer_locked(group.id, 
                gr(src), gr(dst), bytes, known[static_cast<std::size_t>(vsrc)],
                &active);
            account_transfer_locked(gr(src),
                                    known[static_cast<std::size_t>(vsrc)],
                                    end, active, bytes, 0);
            account_transfer_locked(gr(dst), arrival[du],
                                    std::max(end, arrival[du]), active, 0,
                                    bytes);
            known[static_cast<std::size_t>(vdst)] = std::max(end, arrival[du]);
          }
        }
        for (int dst = 0; dst < p; ++dst) {
          group.single_out[static_cast<std::size_t>(dst)] =
              std::move(parts[static_cast<std::size_t>(dst)]);
        }
      } else {
        double root_busy_from = arrival[ru];
        for (int dst = 0; dst < p; ++dst) {
          const auto du = static_cast<std::size_t>(dst);
          if (dst == root) {
            group.single_out[du] = std::move(parts[du]);
            continue;
          }
          const std::size_t bytes = parts[du].bytes;
          double active = 0.0;
          const double end = schedule_transfer_locked(group.id, gr(root), gr(dst), bytes,
                                                      arrival[ru], &active);
          account_transfer_locked(gr(dst), arrival[du],
                                  std::max(end, arrival[du]), active, 0,
                                  bytes);
          account_transfer_locked(gr(root), root_busy_from, end, active, bytes,
                                  0);
          root_busy_from = end;
          group.single_out[du] = std::move(parts[du]);
        }
      }
      break;
    }

    case CollectiveKind::kExchange: {
      // All pairwise transfers scheduled in (src, dst) order; a rank's
      // clock advances to the end of the last transfer it participates in.
      // Destinations in the staged sends are local ranks.
      for (int src = 0; src < p; ++src) {
        const auto su = static_cast<std::size_t>(src);
        for (auto& [dst, packet] : group.exchange_in[su]) {
          HPRS_ASSERT(dst >= 0 && dst < p && dst != src);
          const auto du = static_cast<std::size_t>(dst);
          const std::size_t bytes = packet.bytes;
          double active = 0.0;
          const double end = schedule_transfer_locked(group.id, gr(src), gr(dst), bytes,
                                                      arrival[su], &active);
          account_transfer_locked(gr(src), arrival[su], end, active, bytes, 0);
          account_transfer_locked(gr(dst), arrival[du],
                                  std::max(end, arrival[du]), active, 0,
                                  bytes);
          group.exchange_out[du].emplace_back(src, std::move(packet));
        }
        group.exchange_in[su].clear();
      }
      break;
    }

    case CollectiveKind::kNone:
      HPRS_ASSERT(false);
  }

  ++obs_.collectives[obs_kind];
  const std::uint64_t wire = obs_scheduled_bytes_ - obs_bytes_before;
  obs_.collective_wire_bytes[obs_kind] += wire;
  ++group.coll_count[obs_kind];
  group.coll_bytes[obs_kind] += wire;
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

void Engine::core_barrier(Group& group, int rank) {
  std::unique_lock<std::mutex> lock(mutex_);
  begin_collective(group, rank, CollectiveKind::kBarrier, group.root_local);
  if (group.arrived == group.size()) {
    finish_collective_locked(group);
    return;
  }
  wait_for_generation(lock, group, rank, group.generation);
}

Packet Engine::core_bcast(Group& group, int rank, int root, Packet payload) {
  std::unique_lock<std::mutex> lock(mutex_);
  begin_collective(group, rank, CollectiveKind::kBcast, root);
  const auto r = static_cast<std::size_t>(rank);
  if (rank == root) group.inputs[r] = std::move(payload);
  if (group.arrived == group.size()) {
    finish_collective_locked(group);
  } else {
    wait_for_generation(lock, group, rank, group.generation);
  }
  return std::move(group.single_out[r]);
}

std::vector<Packet> Engine::core_gather(Group& group, int rank, int root,
                                        Packet payload) {
  std::unique_lock<std::mutex> lock(mutex_);
  begin_collective(group, rank, CollectiveKind::kGather, root);
  const auto r = static_cast<std::size_t>(rank);
  const auto w = static_cast<std::size_t>(group.world_rank(rank));
  // Adopt this rank's recycled result buffer so the coordinator's resize
  // reuses capacity from a previous generation instead of allocating.  The
  // pool is indexed by world rank (it is rank-confined host scratch, not
  // communicator state).
  auto& out_slot = group.multi_out[r];
  out_slot.clear();
  if (gather_pool_[w].capacity() > out_slot.capacity()) {
    out_slot.swap(gather_pool_[w]);
  }
  group.inputs[r] = std::move(payload);
  if (group.arrived == group.size()) {
    finish_collective_locked(group);
  } else {
    wait_for_generation(lock, group, rank, group.generation);
  }
  return std::move(group.multi_out[r]);
}

Packet Engine::core_scatter(Group& group, int rank, int root,
                            std::vector<Packet>& parts) {
  std::unique_lock<std::mutex> lock(mutex_);
  begin_collective(group, rank, CollectiveKind::kScatter, root);
  const auto r = static_cast<std::size_t>(rank);
  if (rank == root) {
    // Move element contents into the (capacity-retaining) staging slot;
    // the caller keeps its vector's capacity for the next scatter.
    auto& staged = group.scatter_parts[r];
    staged.resize(parts.size());
    for (std::size_t i = 0; i < parts.size(); ++i) {
      staged[i] = std::move(parts[i]);
    }
  }
  if (group.arrived == group.size()) {
    finish_collective_locked(group);
  } else {
    wait_for_generation(lock, group, rank, group.generation);
  }
  return std::move(group.single_out[r]);
}

std::vector<std::pair<int, Packet>> Engine::core_exchange(
    Group& group, int rank, std::vector<std::pair<int, Packet>>& sends) {
  std::unique_lock<std::mutex> lock(mutex_);
  begin_collective(group, rank, CollectiveKind::kExchange, group.root_local);
  const auto r = static_cast<std::size_t>(rank);
  const auto w = static_cast<std::size_t>(group.world_rank(rank));
  auto& in_slot = group.exchange_in[r];
  in_slot.resize(sends.size());
  for (std::size_t i = 0; i < sends.size(); ++i) {
    in_slot[i] = std::move(sends[i]);
  }
  auto& out_slot = group.exchange_out[r];
  out_slot.clear();
  if (exchange_pool_[w].capacity() > out_slot.capacity()) {
    out_slot.swap(exchange_pool_[w]);
  }
  if (group.arrived == group.size()) {
    finish_collective_locked(group);
  } else {
    wait_for_generation(lock, group, rank, group.generation);
  }
  return std::move(group.exchange_out[r]);
}

Group& Engine::ensure_group(std::uint64_t id, const std::vector<int>& members) {
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
  auto group = std::make_unique<Group>(id, members, 0, std::move(sub));
  group->snap_scope = "comm_" + std::to_string(id);
  const auto n = members.size();
  group->inputs.assign(n, Packet{});
  group->single_out.assign(n, Packet{});
  resize_and_clear(group->scatter_parts, n);
  resize_and_clear(group->exchange_in, n);
  resize_and_clear(group->multi_out, n);
  resize_and_clear(group->exchange_out, n);
  Group& ref = *group;
  groups_.emplace(id, std::move(group));
  return ref;
}

void Engine::core_sleep_until(int rank, double deadline) {
  const auto r = static_cast<std::size_t>(rank);
  auto& s = stats_[r];
  // Same fail-stop boundary as core_compute: crash_time_ is immutable
  // during the run and the clock is rank-confined, so no lock is needed
  // until a death actually fires.
  if (s.clock >= crash_time_[r]) {
    std::lock_guard<std::mutex> lock(mutex_);
    die_locked(rank);
  }
  if (deadline <= s.clock) return;
  if (options_.enable_trace) {
    trace_[r].push_back(
        TraceEvent{rank, TraceKind::kIdle, s.clock, deadline, 0});
  }
  s.wait += deadline - s.clock;
  s.clock = deadline;
  if (s.clock >= crash_time_[r]) {
    std::lock_guard<std::mutex> lock(mutex_);
    die_locked(rank);
  }
}

RankStats Engine::core_stats(int rank) const {
  // Rank-confined like core_now: a rank only snapshots its own stats.
  return stats_[static_cast<std::size_t>(rank)];
}

// --- scratch recycling ------------------------------------------------------
// The pool slots are rank-confined (slot r is only touched from rank r's
// execution context), so these run without the engine lock.

void Engine::core_recycle_gather(int rank, std::vector<Packet> buffer) {
  buffer.clear();
  auto& slot = gather_pool_[static_cast<std::size_t>(rank)];
  if (buffer.capacity() > slot.capacity()) slot = std::move(buffer);
}

void Engine::core_recycle_exchange(
    int rank, std::vector<std::pair<int, Packet>> buffer) {
  buffer.clear();
  auto& slot = exchange_pool_[static_cast<std::size_t>(rank)];
  if (buffer.capacity() > slot.capacity()) slot = std::move(buffer);
}

// --- point-to-point ---------------------------------------------------------

void Engine::core_send(int rank, int dst, int tag, Packet payload,
                       std::uint64_t channel) {
  HPRS_REQUIRE(dst >= 0 && dst < size() && dst != rank,
               "invalid destination rank");
  std::unique_lock<std::mutex> lock(mutex_);
  maybe_crash_locked(rank);
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
  waiting_[static_cast<std::size_t>(rank)] =
      WaitInfo{WaitInfo::What::kSend, dst, tag, CollectiveKind::kNone};
  const auto deadline = deadline_after(options_.deadlock_timeout_s);
  bool deadline_expired = false;
  while (!it->matched && !poisoned_) {
    if (rank_state_[static_cast<std::size_t>(dst)] != RankState::kRunning) {
      // Dead or finished receiver: a plain send can never complete.  The
      // fault-tolerant path uses core_try_send, which survives this.
      poison_locked(peer_failure_locked("send", rank, dst, tag));
      break;
    }
    if (deadline_expired) {
      poison_locked("send never matched (virtual MPI deadlock?); " +
                    describe_blocked_locked());
      break;
    }
    deadline_expired = wait_rank(lock, rank, deadline);
  }
  check_poison_locked();
  waiting_[static_cast<std::size_t>(rank)] = WaitInfo{};
  // Apply this side of the transfer (the receiver computed it at match
  // time but deliberately left the sender's stats to the sender).
  account_transfer_locked(rank, it->ready, it->sender_end, it->active,
                          it->bytes, 0);
  queue.erase(it);
}

bool Engine::core_try_send(int rank, int dst, int tag, Packet payload,
                           double timeout_s, std::uint64_t channel) {
  HPRS_REQUIRE(dst >= 0 && dst < size() && dst != rank,
               "invalid destination rank");
  std::unique_lock<std::mutex> lock(mutex_);
  maybe_crash_locked(rank);
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

  waiting_[static_cast<std::size_t>(rank)] =
      WaitInfo{WaitInfo::What::kTrySend, dst, tag, CollectiveKind::kNone};
  const auto deadline = deadline_after(options_.deadlock_timeout_s);
  bool deadline_expired = false;
  while (!it->matched && !poisoned_) {
    const RankState peer = rank_state_[static_cast<std::size_t>(dst)];
    if (peer == RankState::kCrashed) break;
    if (peer == RankState::kFinished) {
      // Finishing without receiving is a protocol bug, not a failure the
      // caller can recover from.
      poison_locked(peer_failure_locked("try_send", rank, dst, tag));
      break;
    }
    if (deadline_expired) {
      poison_locked("try_send never matched (virtual MPI deadlock?); " +
                    describe_blocked_locked());
      break;
    }
    deadline_expired = wait_rank(lock, rank, deadline);
  }
  check_poison_locked();
  waiting_[static_cast<std::size_t>(rank)] = WaitInfo{};
  if (it->matched) {
    account_transfer_locked(rank, it->ready, it->sender_end, it->active,
                            it->bytes, 0);
    queue.erase(it);
    return true;
  }
  // The receiver died without matching: withdraw the posting and charge the
  // virtual heartbeat that discovered the death.
  queue.erase(it);
  charge_detection_locked(rank, dst, timeout_s);
  return false;
}

Packet Engine::core_recv(int rank, int src, int tag) {
  HPRS_REQUIRE(src >= 0 && src < size() && src != rank, "invalid source rank");
  std::unique_lock<std::mutex> lock(mutex_);
  maybe_crash_locked(rank);
  const auto key = std::make_tuple(src, rank, tag);

  waiting_[static_cast<std::size_t>(rank)] =
      WaitInfo{WaitInfo::What::kRecv, src, tag, CollectiveKind::kNone};
  const auto deadline = deadline_after(options_.deadlock_timeout_s);
  bool deadline_expired = false;
  std::list<PendingSend>::iterator it;
  while (true) {
    check_poison_locked();
    const auto q = mailbox_.find(key);
    if (q != mailbox_.end()) {
      it = std::find_if(q->second.begin(), q->second.end(),
                        [](const PendingSend& ps) { return !ps.matched; });
      if (it != q->second.end()) break;
    }
    if (rank_state_[static_cast<std::size_t>(src)] != RankState::kRunning) {
      // Nothing pending and the sender is dead or finished: a plain recv
      // can never match.  The fault-tolerant path uses core_try_recv.
      poison_locked(peer_failure_locked("recv", rank, src, tag));
      check_poison_locked();
    }
    if (deadline_expired) {
      // Deadline passed and the re-check above still found no posting.
      poison_locked("recv never matched (virtual MPI deadlock?); " +
                    describe_blocked_locked());
      check_poison_locked();
    }
    deadline_expired = wait_rank(lock, rank, deadline);
  }
  waiting_[static_cast<std::size_t>(rank)] = WaitInfo{};
  return match_recv_locked(rank, src, tag, *it);
}

std::optional<Packet> Engine::core_try_recv(int rank, int src, int tag,
                                            double timeout_s) {
  HPRS_REQUIRE(src >= 0 && src < size() && src != rank, "invalid source rank");
  std::unique_lock<std::mutex> lock(mutex_);
  maybe_crash_locked(rank);
  const auto key = std::make_tuple(src, rank, tag);

  waiting_[static_cast<std::size_t>(rank)] =
      WaitInfo{WaitInfo::What::kTryRecv, src, tag, CollectiveKind::kNone};
  const auto deadline = deadline_after(options_.deadlock_timeout_s);
  bool deadline_expired = false;
  while (true) {
    check_poison_locked();
    const auto q = mailbox_.find(key);
    if (q != mailbox_.end()) {
      // A message posted before the sender's death is still delivered (the
      // data already left the sender); only silence is a failure.
      const auto it =
          std::find_if(q->second.begin(), q->second.end(),
                       [](const PendingSend& ps) { return !ps.matched; });
      if (it != q->second.end()) {
        waiting_[static_cast<std::size_t>(rank)] = WaitInfo{};
        return match_recv_locked(rank, src, tag, *it);
      }
    }
    const RankState peer = rank_state_[static_cast<std::size_t>(src)];
    if (peer == RankState::kCrashed) {
      waiting_[static_cast<std::size_t>(rank)] = WaitInfo{};
      charge_detection_locked(rank, src, timeout_s);
      return std::nullopt;
    }
    if (peer == RankState::kFinished) {
      // Finishing without sending is a protocol bug, not a failure the
      // caller can recover from.
      poison_locked(peer_failure_locked("try_recv", rank, src, tag));
      check_poison_locked();
    }
    if (deadline_expired) {
      poison_locked("try_recv never matched (virtual MPI deadlock?); " +
                    describe_blocked_locked());
      check_poison_locked();
    }
    deadline_expired = wait_rank(lock, rank, deadline);
  }
}

}  // namespace hprs::vmpi
