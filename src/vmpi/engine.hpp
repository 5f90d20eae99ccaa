// Discrete-event virtual message-passing engine.
//
// Executes an SPMD program -- one callable invoked once per rank -- on a
// simulated simnet::Platform.  Ranks run as host execution contexts so the
// program's *numerics* are real, while *time* is virtual:
//
//   compute  : seconds = flops * 1e-6 * w_rank        (w in s/megaflop)
//   transfer : seconds = bytes*8/1e6 * c_ij / 1000    (c in ms/megabit)
//              + a fixed per-message latency
//
// Transfers contend for two resource classes, each modeled as a
// busy-until time: the per-processor NIC (a workstation transmits or
// receives one message at a time, which makes broadcasts linear, as on a
// network of workstations), and the serial links between communication
// segments (the paper's fully heterogeneous network interconnects its four
// segments with serial links).
//
// Host execution comes in two modes with bit-identical virtual results
// (DESIGN.md §8):
//
//  - kBoundedExecutor (default): ranks are fibers multiplexed on at most
//    min(p, hardware_concurrency) worker threads by vmpi::Executor, so a
//    256-rank Thunderhead run does not spawn 256 kernel threads;
//  - kThreadPerRank: one OS thread per rank (the original scheme), kept
//    for differential testing and selectable at runtime with the
//    HPRS_THREAD_PER_RANK environment variable.
//
// Determinism: collective cost models run once -- executed by the
// last-arriving rank under the engine lock -- scheduling member transfers
// in rank order, so the coordinator's identity never affects results.  For
// point-to-point transfers the receiver computes the schedule and the
// sender applies its own half of the accounting when it completes the
// send, which keeps every rank's stats, clock, and trace owned by exactly
// one execution context at a time.  Virtual results are therefore
// bit-identical across runs, host schedules, and execution modes.
// Point-to-point send/recv is deterministic whenever, as in all the
// shipped algorithms, concurrently outstanding matches do not share
// resources.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "obs/snapshot.hpp"
#include "simnet/platform.hpp"
#include "vmpi/fault.hpp"
#include "vmpi/packet.hpp"
#include "vmpi/stats.hpp"

namespace hprs::vmpi {

class Comm;
class Executor;

/// Collective-operation tags, shared by the per-group rendezvous state and
/// the deadlock diagnostics.
enum class CollectiveKind : std::uint8_t {
  kNone,
  kBarrier,
  kBcast,
  kGather,
  kScatter,
  kExchange,
};

/// One communicator's identity and collective-rendezvous state.
///
/// A Group maps the communicator's local ranks onto engine (world) ranks
/// and owns the per-collective staging slots that used to live directly in
/// the engine; giving every communicator its own copy is what lets
/// disjoint sub-communicators run collectives *concurrently* -- the
/// MPI_Comm_split semantics the multi-job scheduler (src/sched/) gangs
/// jobs with.  The world communicator is simply the group {0..p-1} with
/// id 0.
///
/// Identity is content-derived (a SplitMix64 hash of the parent group id
/// and the split/creation key), so the same program produces the same
/// group ids on every run and in both executor modes -- nothing
/// schedule-dependent ever enters the engine's deterministic state.
///
/// All fields except `id`/`members`/`root_local`/`platform` are guarded by
/// the engine mutex; the immutable identity fields are safe to read from
/// any rank context once the group exists.
struct Group {
  Group(std::uint64_t id_, std::vector<int> members_, int root_local_,
        simnet::Platform platform_)
      : id(id_),
        members(std::move(members_)),
        root_local(root_local_),
        platform(std::move(platform_)) {}

  std::uint64_t id = 0;
  /// Local rank -> world rank, in local-rank order.
  std::vector<int> members;
  /// The rank that plays master inside this communicator (world: the
  /// engine root; sub-communicators: local rank 0).
  int root_local = 0;
  /// Restricted platform view: processor i is the spec of world rank
  /// members[i], with the segment structure of the full platform.  Lets
  /// the WEA partition over exactly the ranks of this communicator.
  simnet::Platform platform;

  [[nodiscard]] int size() const { return static_cast<int>(members.size()); }
  [[nodiscard]] int world_rank(int local) const {
    return members[static_cast<std::size_t>(local)];
  }

  // --- collective rendezvous state (engine mutex) ---
  CollectiveKind coll_kind = CollectiveKind::kNone;
  int coll_root = -1;  ///< local rank
  int arrived = 0;
  std::uint64_t generation = 0;
  std::vector<Packet> inputs;
  std::vector<std::vector<Packet>> scatter_parts;
  std::vector<std::vector<std::pair<int, Packet>>> exchange_in;
  std::vector<Packet> single_out;
  std::vector<std::vector<Packet>> multi_out;
  std::vector<std::vector<std::pair<int, Packet>>> exchange_out;

  // --- counter plane (engine mutex; see obs/snapshot.hpp) ---
  /// Scope label this group's snapshot samples are filed under; "world"
  /// for group 0, "comm_<id>" by default, overridden per job through
  /// Comm::label_snapshots.
  std::string snap_scope;
  /// Per-group stable counters, sampled at collective boundaries.  Indexed
  /// by CollectiveKind like Engine::ObsCounters; [0] stays unused.
  std::uint64_t coll_count[6] = {};
  std::uint64_t coll_bytes[6] = {};
  std::uint64_t p2p_messages = 0;
  std::uint64_t p2p_bytes = 0;
  /// Seeded virtual-time sampling schedule; initialized lazily on the
  /// group's first collective so disabled runs never draw from it.
  obs::SnapshotCadence snap_cadence;
  bool snap_init = false;
};

/// How rank bodies are mapped onto host threads.  Virtual results are
/// bit-identical across modes; only host cost differs.
enum class ExecMode : std::uint8_t {
  kBoundedExecutor,  ///< fibers on <= min(p, hardware_concurrency) threads
  kThreadPerRank,    ///< one OS thread per rank
};

struct Options {
  /// Fixed virtual latency added to every message.
  double per_message_latency_s = 1e-4;
  /// Wall-clock bound on how long a rank may block waiting for a peer
  /// before the engine declares deadlock (host seconds, not virtual).  The
  /// bounded executor additionally proves deadlocks instantly when every
  /// rank is blocked.
  double deadlock_timeout_s = 120.0;
  /// Rank that plays master in the report decomposition.
  int root = 0;
  /// Record a per-rank timeline of compute/transfer/idle intervals into
  /// RunReport::trace (see vmpi/trace.hpp).
  bool enable_trace = false;
  /// Host execution mode; HPRS_THREAD_PER_RANK (non-empty, non-"0")
  /// overrides to kThreadPerRank.
  ExecMode exec_mode = ExecMode::kBoundedExecutor;
  /// Worker-thread cap for kBoundedExecutor; 0 means
  /// min(p, hardware_concurrency).
  std::size_t executor_workers = 0;
  /// Per-rank fiber stack for kBoundedExecutor; 0 means 1 MiB.
  std::size_t fiber_stack_bytes = 0;
  /// Injected failures, all in virtual time (see vmpi/fault.hpp).  An empty
  /// plan leaves every run bit-identical to a fault-free engine.
  FaultPlan fault_plan;
  /// Default virtual-time heartbeat for Comm::try_send / try_recv: how long
  /// a rank waits past a dead peer's death before declaring it lost.
  double fault_detection_s = 0.1;
  /// Counter-plane snapshot service (off by default).  Enabling it samples
  /// per-communicator stable pvars on a seeded virtual-time cadence into
  /// RunReport::snapshots; virtual results are unaffected either way.
  obs::SnapshotConfig snapshot;
};

class Engine {
 public:
  explicit Engine(simnet::Platform platform, Options options = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Runs `program` once per rank and returns the timing report.  Rethrows
  /// the first exception thrown by any rank.
  RunReport run(const std::function<void(Comm&)>& program);

  [[nodiscard]] const simnet::Platform& platform() const { return platform_; }
  [[nodiscard]] int size() const { return static_cast<int>(platform_.size()); }

 private:
  friend class Comm;

  // --- type-erased operation core, called via Comm ---
  /// `charge_launch` lets streamed sweeps model one batched kernel launch:
  /// only the first tile of a sweep pays the accelerator's fixed launch
  /// latency; later tiles charge pure flops time.  Default true keeps every
  /// historic call site's arithmetic untouched.
  void core_compute(int rank, std::uint64_t flops, Phase phase,
                    bool charge_launch = true);
  /// Charges `rank` the host->device staging time for copying `bytes` of
  /// input onto its accelerator (comm bucket).  Exact no-op on
  /// non-accelerated ranks, so historic platforms keep their clocks.
  void core_stage(int rank, std::uint64_t bytes);
  /// Enqueues an asynchronous host->device tile copy on `rank`'s staging
  /// pipe (one DMA engine: tiles serialize on the pipe but overlap the
  /// rank's compute).  Returns the virtual completion time of the copy
  /// without advancing the rank's clock; 0.0 on non-accelerated ranks.
  [[nodiscard]] double core_stage_async(int rank, std::uint64_t bytes);
  /// Blocks `rank` until the staging completion time `until` (as returned
  /// by core_stage_async): any exposed gap is charged to the comm bucket,
  /// matching the synchronous core_stage accounting.  No-op when the clock
  /// is already past `until`.
  void core_stage_wait(int rank, double until);
  /// Advances `rank`'s clock to at least `deadline` (virtual seconds),
  /// charging the gap as wait time.  A no-op when the clock is already
  /// past the deadline.  Used by the scheduler to pace job arrivals.
  void core_sleep_until(int rank, double deadline);
  /// Snapshot of `rank`'s own stats (rank-confined, safe without the
  /// engine lock from the rank's execution context).
  [[nodiscard]] RankStats core_stats(int rank) const;
  // Collectives take the communicator's Group and the caller's *local*
  // rank; roots and exchange destinations are local too.  The group maps
  // them onto world ranks for transfer scheduling and accounting.
  void core_barrier(Group& group, int rank);
  Packet core_bcast(Group& group, int rank, int root, Packet payload);
  std::vector<Packet> core_gather(Group& group, int rank, int root,
                                  Packet payload);
  /// Scatter: the root fills `parts` (one per member); the engine moves the
  /// elements out and leaves the vector's capacity with the caller for
  /// reuse.
  Packet core_scatter(Group& group, int rank, int root,
                      std::vector<Packet>& parts);
  /// Deterministic generalized all-to-all: every member contributes a list
  /// of (destination, packet) sends; the coordinator schedules all
  /// transfers in (src, dst) order and each member receives its incoming
  /// packets tagged with their source rank.  Used for halo exchanges.
  /// Element contents are moved out of `sends`; its capacity stays with the
  /// caller.
  std::vector<std::pair<int, Packet>> core_exchange(
      Group& group, int rank, std::vector<std::pair<int, Packet>>& sends);
  /// Idempotent registration of a sub-communicator: returns the existing
  /// group when `id` is already known (validating that `members` match) or
  /// creates it with a platform restricted to `members`.  Every member of a
  /// new communicator calls this with identical arguments; the first caller
  /// creates, the rest attach.
  Group& ensure_group(std::uint64_t id, const std::vector<int>& members);
  // P2p send-side entry points take the communicator's group id as
  // `channel`: inter-segment link serialization is scoped per communicator
  // (see schedule_transfer_locked), and a message contends on the channel
  // of the communicator it was sent over.
  void core_send(int rank, int dst, int tag, Packet payload,
                 std::uint64_t channel);
  Packet core_recv(int rank, int src, int tag);
  /// Fault-aware rendezvous send: true when `dst` matched the message,
  /// false when `dst` is dead (the posting is withdrawn and this rank's
  /// clock advances past the peer's death by `timeout_s` -- the virtual
  /// heartbeat -- charged as detection overhead).
  [[nodiscard]] bool core_try_send(int rank, int dst, int tag, Packet payload,
                                   double timeout_s, std::uint64_t channel);
  /// Fault-aware receive: the payload when `src` delivered one, nullopt
  /// when `src` is dead with nothing pending (same detection accounting as
  /// core_try_send).
  [[nodiscard]] std::optional<Packet> core_try_recv(int rank, int src, int tag,
                                                    double timeout_s);
  /// Renames the snapshot scope of `group` (e.g. "job:7/atdca" instead of
  /// the default "comm_<id>"); every member calls it with the same label
  /// right after creating the communicator, so it lands before the group's
  /// first sample.
  void core_label_snapshots(Group& group, std::string_view label);
  /// Appends one caller-assembled pvar sample at `rank`'s current virtual
  /// clock (used by the scheduler's dispatcher for queue-depth series).
  void core_snapshot_sample(int rank, std::string_view scope,
                            const obs::PvarSet& pvars);
  /// Tags `seconds` of already-charged master time as redistribution
  /// overhead in the recovery decomposition.
  void core_note_redistribution(int rank, double seconds);
  /// Enters/leaves a recovery scope: compute charged while the scope is
  /// open is additionally counted as recomputed work.  Nestable.
  void core_set_recovery(int rank, bool on);
  [[nodiscard]] double core_now(int rank) const;

  // --- scratch recycling (rank-confined; see the pool comments below) ---
  void core_recycle_gather(int rank, std::vector<Packet> buffer);
  void core_recycle_exchange(int rank,
                             std::vector<std::pair<int, Packet>> buffer);

  // --- collective machinery (all called with mutex_ held) ---
  void begin_collective(Group& group, int rank, CollectiveKind kind,
                        int root);
  void finish_collective_locked(Group& group);
  void wait_for_generation(std::unique_lock<std::mutex>& lock, Group& group,
                           int rank, std::uint64_t generation);

  // --- host-side blocking layer (two implementations, one protocol) ---
  /// Blocks `rank` until woken or the deadline expires; returns true on
  /// expiry (which, like a spurious wakeup, obliges the caller to re-check
  /// its predicate before concluding deadlock).
  bool wait_rank(std::unique_lock<std::mutex>& lock, int rank,
                 std::chrono::steady_clock::time_point deadline);
  void wake_rank_locked(int rank);
  void wake_all_locked();

  /// Schedules one transfer src -> dst: claims NIC and inter-segment
  /// resources, advances them, and returns the completion time.  `ready` is
  /// the earliest the sender-side data is available.  When `active_out` is
  /// non-null it receives the wire seconds of this transfer (computed with
  /// the link capacity in effect at the transfer's start, so degradation
  /// windows apply consistently to schedule and accounting).
  ///
  /// `channel` scopes the inter-segment link serialization: transfers of
  /// the same communicator serialize on the backbone in the deterministic
  /// order their coordinator schedules them, while communicators with
  /// disjoint members (concurrent scheduler gangs) get independent
  /// backbone reservations.  Cross-communicator serialization would make
  /// virtual time depend on which gang's host thread reached the engine
  /// lock first -- the one ordering the discrete-event core cannot make
  /// deterministic without a global event queue.  Per-rank NICs
  /// (nic_free_) stay globally shared: a rank executes its operations in
  /// program order, so that state is race-free by construction.
  double schedule_transfer_locked(std::uint64_t channel, int src, int dst,
                                  std::size_t bytes, double ready,
                                  double* active_out = nullptr);

  /// Charges comm/wait stats for a rank that participated in a transfer
  /// finishing at `end`, having been ready at `ready`, with `active`
  /// seconds of actual wire time.
  void account_transfer_locked(int rank, double ready, double end,
                               double active, std::uint64_t bytes_out,
                               std::uint64_t bytes_in);

  /// Samples `group`'s counter plane into timeline_ if its snapshot
  /// cadence has come due at the group's current collective boundary.
  /// Called from finish_collective_locked with every member blocked, so
  /// the sampled values are a pure function of the group's program order.
  void maybe_snapshot_group_locked(Group& group);
  /// Assembles the pvar sample for `group` (collective/p2p counters plus
  /// member stats totals).
  [[nodiscard]] obs::PvarSet group_pvars_locked(const Group& group) const;

  void poison_locked(const std::string& reason);
  void check_poison_locked() const;

  /// Publishes the per-run ObsCounters (and report-derived totals) into
  /// obs::Metrics.  Called once at the end of run(); a disabled registry
  /// returns immediately.
  void publish_metrics(const RunReport& report) const;

  // --- fault machinery (see vmpi/fault.hpp for the model) ---
  /// Lifecycle of a rank's execution context during one run.
  enum class RankState : std::uint8_t { kRunning, kCrashed, kFinished };
  /// What a parked rank is blocked on, for deadlock diagnostics.  Written
  /// by the owning rank under the engine lock, read by whichever rank
  /// declares deadlock.
  struct WaitInfo {
    enum class What : std::uint8_t {
      kNone,
      kCollective,
      kSend,
      kRecv,
      kTrySend,
      kTryRecv,
    };
    What what = What::kNone;
    int peer = -1;  ///< p2p peer, or the collective root
    int tag = 0;
    CollectiveKind coll = CollectiveKind::kNone;
  };

  /// Kills `rank` (fail-stop) if its clock has reached its planned crash
  /// time: records the death, wakes peers (or poisons a pending
  /// collective), and unwinds the rank body via an internal signal that
  /// run() absorbs without treating it as an error.
  void maybe_crash_locked(int rank);
  [[noreturn]] void die_locked(int rank);
  /// Link capacity src-segment -> dst-segment for a transfer starting at
  /// virtual time `at`, with any matching degradation windows applied.
  [[nodiscard]] double effective_link_ms_locked(std::size_t s, std::size_t d,
                                                double at) const;
  /// Number of consecutive lost attempts for the next transfer on the
  /// (src, dst, tag) queue (0 when the loss model is off): a pure function
  /// of the plan seed and the per-queue sequence number.
  std::uint64_t loss_attempts_locked(int src, int dst, int tag);
  /// Receiver's half of matching a pending send: applies the loss model,
  /// schedules and accounts the transfer, and records the sender's half on
  /// the posting.  Shared by core_recv and core_try_recv.
  struct PendingSend;
  Packet match_recv_locked(int rank, int src, int tag, PendingSend& ps);
  /// Charges the virtual heartbeat wait for discovering `peer` dead and
  /// logs the detection event.
  void charge_detection_locked(int rank, int peer, double timeout_s);
  /// One-line-per-rank description of every blocked or crashed rank, for
  /// deadlock diagnostics.
  [[nodiscard]] std::string describe_blocked_locked() const;
  [[nodiscard]] std::string peer_failure_locked(const char* op, int rank,
                                                int peer, int tag) const;

  simnet::Platform platform_;
  Options options_;

  mutable std::mutex mutex_;
  /// Thread-per-rank mode: one condition slot per rank, so a wakeup
  /// targets exactly the rank it is for.  Unused in executor mode.
  std::unique_ptr<std::condition_variable[]> rank_cvs_;
  /// Bounded-executor mode: set for the duration of run(); park/notify
  /// replace the condition variables.
  Executor* executor_ = nullptr;

  // Virtual state.  A rank's clock/stats are mutated either by its own
  // execution context (while running) or by the collective coordinator
  // (while the rank is blocked), never concurrently.
  std::vector<RankStats> stats_;
  /// Per-rank trace buffers (only filled when options_.enable_trace); a
  /// rank's buffer is mutated by its own context or by the collective
  /// coordinator while the rank is blocked, like its clock.
  std::vector<std::vector<TraceEvent>> trace_;
  std::vector<double> nic_free_;  // per-processor NIC busy-until
  /// Per-rank staging-pipe busy-until for core_stage_async (the accelerator
  /// DMA engine).  Rank-confined like stats_: only rank r's context issues
  /// stages on pipe r, so no lock is needed.
  std::vector<double> stage_pipe_free_;
  /// Rank-confined counters of async-staged tiles/bytes, published as
  /// vmpi.stage.* metrics (gated on nonzero so historic goldens keep their
  /// exact key sets).
  std::vector<std::uint64_t> stage_tiles_;
  std::vector<std::uint64_t> stage_bytes_;
  /// Inter-segment serial link busy-until, keyed by (communicator channel,
  /// ordered segment pair) -- see schedule_transfer_locked for why the
  /// backbone reservation is scoped per communicator.
  std::map<std::tuple<std::uint64_t, std::size_t, std::size_t>, double>
      xlink_free_;

  // Communicator groups, keyed by content-derived id.  Group 0 is the
  // world communicator, created at the top of run(); sub-communicators are
  // registered through ensure_group and live until the run ends.  Each
  // group carries its own collective-rendezvous state (the out/in vectors
  // persist across generations -- only elements are moved through them --
  // so a long run's collectives stop allocating once warm).
  std::map<std::uint64_t, std::unique_ptr<Group>> groups_;
  Group* world_ = nullptr;

  // Recycled gather-result / exchange-result buffers.  Slot r is only ever
  // touched by rank r (its Comm returns a drained vector here; its next
  // core_gather/core_exchange adopts the capacity), so the slots are
  // rank-confined and need no locking of their own.
  std::vector<std::vector<Packet>> gather_pool_;
  std::vector<std::vector<std::pair<int, Packet>>> exchange_pool_;

  // Point-to-point mailboxes keyed by (src, dst, tag).  std::list gives the
  // sender a stable element to block on while the receiver matches it.  The
  // receiver computes the transfer schedule and records the sender's half
  // (end/active/bytes); the sender applies it to its own stats when it
  // completes the send, so no context ever touches a running rank's stats.
  struct PendingSend {
    Packet payload;
    double ready = 0.0;
    bool matched = false;     // receiver has taken the payload and timed it
    double sender_end = 0.0;  // sender's completion time once matched
    double active = 0.0;      // wire seconds, for the sender's accounting
    std::uint64_t bytes = 0;  // wire bytes, for the sender's accounting
    std::uint64_t channel = 0;  // communicator id, scopes xlink contention
  };
  std::map<std::tuple<int, int, int>, std::list<PendingSend>> mailbox_;

  // Fault state.  crash_time_ is written once before the rank contexts
  // start and read lock-free by each rank's own context; everything else is
  // mutated under the engine lock, except the rank-confined recovery
  // accumulators (slot r is only touched from rank r's context, like
  // stats_).
  std::vector<RankState> rank_state_;
  std::vector<double> crash_time_;  ///< earliest clock at which a rank dies
  std::vector<double> death_time_;  ///< frozen clock of a crashed rank
  int crashed_count_ = 0;
  std::vector<FaultEvent> fault_log_;
  std::vector<RecoveryStats> recovery_;    // rank-confined accumulators
  std::vector<std::uint8_t> in_recovery_;  // rank-confined scope depth
  std::vector<WaitInfo> waiting_;
  /// Per-(src, dst, tag) transfer sequence numbers for the loss model.
  std::map<std::tuple<int, int, int>, std::uint64_t> loss_seq_;

  // Per-run observability accumulators (published into obs::Metrics once at
  // the end of run()).  Bumped only on paths that already hold mutex_, so
  // telemetry never adds a lock acquisition to a hot path; plain integers
  // keep the cost of the disabled case to a handful of increments.
  struct ObsCounters {
    // Indexed by CollectiveKind; [0] (kNone) stays unused.
    std::uint64_t collectives[6] = {};
    std::uint64_t collective_wire_bytes[6] = {};
    std::uint64_t p2p_messages = 0;
    std::uint64_t p2p_wire_bytes = 0;
    // Host-domain (scheduling-dependent) observations.
    std::uint64_t wakeups_targeted = 0;
    std::uint64_t wakeups_broadcast = 0;
    std::uint64_t mailbox_depth_max = 0;
  };
  ObsCounters obs_;
  /// Counter-plane snapshot timeline (engine mutex); cleared at the top of
  /// run() and moved into RunReport::snapshots at the end.
  obs::SnapshotTimeline timeline_;
  /// Wire bytes of every transfer scheduled since run() started;
  /// finish_collective_locked differences it around the fan-out to obtain
  /// per-collective-kind byte totals.
  std::uint64_t obs_scheduled_bytes_ = 0;

  bool poisoned_ = false;
  std::string poison_reason_;
};

}  // namespace hprs::vmpi
