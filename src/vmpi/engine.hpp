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
// Each operation has one implementation.  Every collective enters through
// core_collective: the caller hands its contribution over in one packet
// list and takes its result back in the same list, which the engine swaps
// with the group's per-member slots instead of copying.  Collectives take
// their dead-member rule as the `failed` argument, point-to-point its
// dead-peer rule as `tolerant` (DESIGN.md §9), and every operation crosses
// one fail-stop check and blocks through one wait helper.
//
// Determinism: collective cost models run once -- executed by the
// last-arriving rank under the engine lock.  Each collective kind only
// lists its transfers as (src, dst, bytes) in a fixed order (rank order,
// or the binomial tree's steps), and one loop times them all: a transfer
// starts from its sender's clock and each side is charged from its own
// clock (DESIGN.md §6), so the coordinator's identity never affects
// results.  A collective whose communicator lost a member resolves once
// every member has either arrived or died (Comm::tolerant, DESIGN.md §9);
// both events happen on the member's own virtual clock, so the dead set
// every survivor observes is the same on every run and in both modes.  For
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

/// The kind's name in pvars, metrics and deadlock diagnostics.
[[nodiscard]] const char* to_string(CollectiveKind kind);

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
        platform(std::move(platform_)),
        in(members.size()),
        out(members.size()),
        sampled_ranks(members) {}

  std::uint64_t id = 0;
  /// Local rank -> world rank, in local-rank order.
  std::vector<int> members;
  /// The rank that plays master inside this communicator (world: the
  /// engine root; split/subset communicators: local rank 0; a shrunken
  /// communicator keeps its parent's root).
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
  /// Per member, by local rank: its contribution to the pending collective
  /// and its result.  core_collective swaps the caller's list with these
  /// slots, so buffers circulate between a member's Comm and its slots and
  /// a warm collective allocates nothing.  Both are empty outside one.
  std::vector<std::vector<Packet>> in;
  std::vector<std::vector<Packet>> out;
  /// Local ranks found dead when the last collective resolved (ascending);
  /// read by each survivor before it can reach the next collective.
  std::vector<int> dead;
  /// Scratch: local ranks that arrived at the resolving collective.
  std::vector<int> live;
  /// One wire transfer of a collective schedule, between local ranks.
  struct Transfer {
    int src = 0;
    int dst = 0;
    std::size_t bytes = 0;
  };
  /// Scratch: the resolving collective's transfers, in send order.
  std::vector<Transfer> transfers;
  /// Scratch: prefix sums of the members' bytes in tree order, so the
  /// binomial subtree of members [v, v + n) carries
  /// subtree[min(v + n, q)] - subtree[v] bytes.
  std::vector<std::size_t> subtree;

  // --- counter plane (engine mutex; see obs/snapshot.hpp) ---
  /// Scope label this group's snapshot samples are filed under: "world"
  /// for group 0, set per job through Comm::label_snapshots, inherited by
  /// a shrunken communicator.  Unlabeled groups are never sampled.
  std::string snap_scope;
  /// World ranks whose stats the ranks.* pvars sum: the members, or for a
  /// shrunken communicator its parent's (dead members included), so the
  /// scope's series keeps a crashed member's work.
  std::vector<int> sampled_ranks;
  /// Per-group stable counters, sampled at collective boundaries; their
  /// sums over the run's groups are the engine's vmpi.collectives.* and
  /// vmpi.p2p.* metrics.  A shrunken communicator takes its parent's over,
  /// so the series it continues never restarts.  Indexed by
  /// CollectiveKind; [0] stays unused.
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
  /// Injected failures, all in virtual time (see vmpi/fault.hpp).  An empty
  /// plan leaves every run bit-identical to a fault-free engine.
  FaultPlan fault_plan;
  /// Virtual-time heartbeat: how long a rank waits past a dead peer's death
  /// before declaring it lost (Comm::try_send / try_recv, and every
  /// survivor of a collective that resolved without a member).
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
  /// The one collective entry point.  `rank`, `root` and exchange peers
  /// are local to `group`, which maps them onto world ranks for transfer
  /// scheduling and accounting.  The caller's contribution goes in through
  /// `io` and its result comes back in the same vector:
  ///   barrier   nothing -> nothing;
  ///   bcast     the root's {payload} -> {payload} on every member;
  ///   gather    {payload} -> at the root, one packet per member in rank
  ///             order; nothing elsewhere;
  ///   scatter   at the root, one part per member -> {its part};
  ///   exchange  sends with peer = destination -> deliveries with
  ///             peer = source, in (source, send) order.
  /// `io` is swapped with the group's slots, never copied.  The collective
  /// resolves once every member has arrived or died; `failed` then receives
  /// the dead members (local, ascending), or, when null, a nonempty dead
  /// set throws hprs::Error naming the crash.  Dead members contribute and
  /// receive nothing: a dead member's gather packet is empty, packets
  /// addressed to it are dropped, and a dead root's collective hands every
  /// survivor an empty list.
  void core_collective(Group& group, int rank, CollectiveKind kind, int root,
                       std::vector<Packet>& io, std::vector<int>* failed);
  /// Idempotent registration of a sub-communicator: returns the existing
  /// group when `id` is already known (validating that `members` match) or
  /// creates it with a platform restricted to `members`, rooted at local
  /// rank `root_local` and continuing `parent`'s counter series (a
  /// shrunken communicator: same scope and sampled ranks, and the parent's
  /// counters move over; unsampled without a parent).  Every member of a
  /// new communicator calls this with identical arguments; the first
  /// caller creates, the rest attach.
  Group& ensure_group(std::uint64_t id, const std::vector<int>& members,
                      int root_local = 0, Group* parent = nullptr);
  // Point-to-point takes world ranks and one dead-peer rule.  A peer that
  // is no longer running poisons the run and names it, except that a
  // `tolerant` op toward a *crashed* peer withdraws its posting, is charged
  // one fault_detection_s heartbeat past the death, and reports failure.
  // A message contends on the inter-segment links of the communicator it
  // was sent over, whose group id is `channel` (schedule_transfer_locked).
  /// Rendezvous send: true once `dst` matched the message, false when a
  /// tolerant send found `dst` crashed.
  bool core_send(int rank, int dst, int tag, Packet payload,
                 std::uint64_t channel, bool tolerant);
  /// Receive: the payload once `src` posted one (a message posted before
  /// the sender's death is still delivered), nullopt when a tolerant
  /// receive found `src` crashed with nothing pending.
  std::optional<Packet> core_recv(int rank, int src, int tag, bool tolerant);
  /// Sets the snapshot scope of `group` (e.g. "job:7/atdca"); a group that
  /// is never labeled is never sampled.  Every member calls it with the
  /// same label right after creating the communicator, so it lands before
  /// the group's first sample.
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

  // --- collective machinery (mutex_ held) ---
  /// True once every member of `group` has arrived or died.
  [[nodiscard]] bool resolvable_locked(const Group& group) const;
  /// Runs the pending collective's cost model over the arrived members:
  /// the kind lists its transfers in send order and hands its payloads
  /// from the `in` slots to the `out` slots, then one loop times every
  /// transfer and the arrived members' `in` slots are cleared.  Records
  /// the dead members in group.dead and charges every survivor one
  /// detection heartbeat when any member died.
  void finish_collective_locked(Group& group);

  // --- host-side blocking layer (two implementations, one protocol) ---
  /// Blocks `rank` until woken or the deadline expires; returns true on
  /// expiry (which, like a spurious wakeup, obliges park_locked to re-check
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

  /// Charges one side of a transfer that ends at `end` with `active`
  /// seconds of wire time, from `rank`'s own clock: the wire time goes to
  /// comm and the rest of [clock, max(end, clock)] to wait.  A payload that
  /// landed before the rank arrived is handed over at its clock, so
  /// compute + wait never exceeds the clock.
  void account_transfer_locked(int rank, double end, double active,
                               std::uint64_t bytes_out,
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

  /// Publishes the run's metrics into obs::Metrics: traffic totals summed
  /// over the groups' counters, report-derived totals and the host-domain
  /// ObsCounters.  Called once at the end of run(); a disabled registry
  /// returns immediately.
  void publish_metrics(const RunReport& report) const;

  // --- fault machinery (see vmpi/fault.hpp for the model) ---
  /// Lifecycle of a rank's execution context during one run.
  enum class RankState : std::uint8_t { kRunning, kCrashed, kFinished };
  /// What a parked rank is blocked on, for deadlock diagnostics.  Written
  /// by the owning rank under the engine lock, read by whichever rank
  /// declares deadlock.
  struct WaitInfo {
    enum class What : std::uint8_t { kNone, kCollective, kSend, kRecv };
    What what = What::kNone;
    int peer = -1;  ///< p2p peer, or the collective root
    int tag = 0;
    CollectiveKind coll = CollectiveKind::kNone;
  };
  /// The one place a rank blocks.  Publishes `wait` for the deadlock
  /// diagnostics and parks `rank` until `ready()` holds; `ready` runs under
  /// the lock before the first park and after every wakeup, and may poison
  /// the run (a p2p peer that can never match).  Once
  /// options_.deadlock_timeout_s of host time has passed, one more failed
  /// `ready()` poisons the run as a deadlock -- a wakeup racing the
  /// deadline is not one.  Throws hprs::Error once the run is poisoned.
  template <typename Ready>
  void park_locked(std::unique_lock<std::mutex>& lock, int rank,
                   const WaitInfo& wait, Ready ready);
  /// The p2p dead-peer rule (see core_send): whether `peer` can no longer
  /// match `rank`'s pending `op`, poisoning the run unless the op is
  /// `tolerant` and the peer crashed.
  bool peer_lost_locked(const char* op, int rank, int peer, int tag,
                        bool tolerant);

  /// The fail-stop boundary of every engine operation: kills `rank` if its
  /// clock has reached its planned crash time.  crash_time_ is immutable
  /// during the run and the clock is rank-confined, so the check takes the
  /// engine lock only when it fires.
  void maybe_crash(int rank);
  /// Records the death, resolves any pending collective that was only
  /// waiting for it, wakes peers, and unwinds the rank body via an
  /// internal signal that run() absorbs without treating it as an error.
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
  /// the posting.
  struct PendingSend;
  Packet match_recv_locked(int rank, int src, int tag, PendingSend& ps);
  /// Charges the fault_detection_s heartbeat wait for discovering `peer`
  /// dead (it died at `death_s`, the latest death of a collective's dead
  /// set) and logs the detection event.
  void charge_detection_locked(int rank, int peer, double death_s);
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
  // group carries its own collective-rendezvous state.
  std::map<std::uint64_t, std::unique_ptr<Group>> groups_;
  Group* world_ = nullptr;

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

  // Per-run host-domain (scheduling-dependent) observations, published
  // into obs::Metrics once at the end of run(); the stable traffic totals
  // come from the groups' counters instead.  Bumped only on paths that
  // already hold mutex_, so telemetry never adds a lock acquisition to a
  // hot path.
  struct ObsCounters {
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
  /// the group's per-collective-kind byte totals.
  std::uint64_t obs_scheduled_bytes_ = 0;

  bool poisoned_ = false;
  std::string poison_reason_;
};

}  // namespace hprs::vmpi
