// Rank-facing communicator: the typed API algorithms program against.
//
// Mirrors the MPI operations the paper's algorithms need (compute charging
// plus barrier / broadcast / gather / scatter / point-to-point), with
// explicit wire sizes per payload -- see vmpi/packet.hpp for why sizes are
// explicit.  One Comm instance exists per rank for the duration of
// Engine::run and is only ever used by that rank's execution context.
// Every collective stages this rank's packets in one buffer, hands it to
// the engine's one collective entry point and reads the result back from
// it; the engine swaps the buffer with its own slots instead of copying,
// so repeated collectives reach an allocation-free steady state.
//
// A Comm is a view of one communicator (vmpi::Group): rank(), size(),
// root(), and platform() all describe the *group*, so an algorithm written
// against this API runs unmodified on a sub-communicator covering any
// subset of the engine's ranks -- the property the multi-job scheduler
// (src/sched/) relies on to gang-place jobs.  split() is the
// MPI_Comm_split analogue; subset() is the MPI_Comm_create_group analogue
// used when the member list is already agreed out of band.  All rank
// arguments (collective roots, p2p sources/destinations, exchange targets)
// are local to this communicator.
//
// Member crashes follow ULFM (Bland et al., "Post-failure recovery of MPI
// communication capability", IJHPCA 2013).  A collective resolves once
// every member has arrived or died.  On a default handle a dead member
// then throws hprs::Error naming the crash (MPI_ERRORS_ARE_FATAL); a
// tolerant() handle instead returns normally -- live members' data
// delivered, dead members' contributions value-initialized -- and failed()
// names the dead members, after one heartbeat of detection, until the next
// collective.  shrink() continues on the survivors.  Point-to-point has
// the same two faces: send/recv toward a dead peer fail the run, while
// try_send/try_recv report a crashed peer after one heartbeat.  Both pairs
// run the engine's one rendezvous, which takes the rule as an argument.
#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "vmpi/engine.hpp"

namespace hprs::vmpi {

class Comm {
 public:
  Comm(Engine& engine, Group& group, int rank)
      : engine_(&engine),
        group_(&group),
        local_(rank),
        rank_(group.world_rank(rank)) {}

  /// This rank's index within the communicator (0 .. size()-1).
  [[nodiscard]] int rank() const { return local_; }
  /// Number of ranks in the communicator.
  [[nodiscard]] int size() const { return group_->size(); }
  [[nodiscard]] bool is_root() const { return local_ == group_->root_local; }
  [[nodiscard]] int root() const { return group_->root_local; }
  /// The platform restricted to this communicator's members: processor i
  /// is the engine processor of member i, so w_i, memory, and segment
  /// assignments keep their world values.
  [[nodiscard]] const simnet::Platform& platform() const {
    return group_->platform;
  }
  /// This rank's index on the engine's full platform.
  [[nodiscard]] int world_rank() const { return rank_; }
  /// Engine rank of communicator member `local`.
  [[nodiscard]] int world_rank_of(int local) const {
    check_local(local);
    return group_->world_rank(local);
  }
  /// Content-derived communicator id (0 for the world communicator);
  /// identical across runs and executor modes for identical programs.
  [[nodiscard]] std::uint64_t group_id() const { return group_->id; }

  // --- failure notification and recovery (ULFM) ---
  /// A handle to this communicator whose collectives survive member
  /// crashes (see the file comment).
  [[nodiscard]] Comm tolerant() const {
    Comm out = *this;
    out.tolerant_ = true;
    return out;
  }
  /// Local ranks the last collective of this tolerant handle found dead
  /// (ascending; empty when every member arrived).  Every survivor sees
  /// the same set.
  [[nodiscard]] const std::vector<int>& failed() const { return failed_; }
  /// The survivors' communicator after failed() (MPI_Comm_shrink): the
  /// members outside failed(), in order, rooted at this communicator's
  /// root and sampled under its snapshot scope.  Its id derives from this
  /// communicator's id and the dead set, so every survivor names the same
  /// communicator without exchanging a message -- the collective that
  /// reported the failure was the agreement.  The root must have survived.
  [[nodiscard]] Comm shrink() const {
    HPRS_REQUIRE(!std::binary_search(failed_.begin(), failed_.end(), root()),
                 "shrink: the root (rank " + std::to_string(root()) +
                     ") is dead");
    std::uint64_t id = SplitMix64(group_->id ^ 0x3c6ef372fe94f82bULL).next();
    std::vector<int> members;
    int new_local = -1;
    int new_root = -1;
    for (int l = 0; l < size(); ++l) {
      if (std::binary_search(failed_.begin(), failed_.end(), l)) {
        id = SplitMix64(id ^ static_cast<std::uint64_t>(l)).next();
        continue;
      }
      if (l == local_) new_local = static_cast<int>(members.size());
      if (l == root()) new_root = static_cast<int>(members.size());
      members.push_back(group_->world_rank(l));
    }
    if (id == 0) id = 1;
    Comm out(*engine_,
             engine_->ensure_group(id, members, new_root, group_),
             new_local);
    out.tolerant_ = tolerant_;
    return out;
  }
  /// Current virtual time of this rank, seconds.
  [[nodiscard]] double now() const { return engine_->core_now(rank_); }

  /// Snapshot of this rank's own accumulated stats (clock, busy split,
  /// bytes, flops).  Differencing two snapshots brackets a region -- the
  /// scheduler uses this for per-job utilization accounting.
  [[nodiscard]] RankStats stats() const { return engine_->core_stats(rank_); }

  /// Advances this rank's virtual clock to at least `deadline` seconds,
  /// charging the gap as wait time (no-op when already past).  Lets a
  /// dispatcher pace work to virtual-time arrivals.
  void sleep_until(double deadline) {
    engine_->core_sleep_until(rank_, deadline);
  }

  // --- counter plane (obs/snapshot.hpp; see DESIGN.md §15) ---
  /// True when the engine's snapshot service is on.
  [[nodiscard]] bool snapshots_enabled() const {
    return engine_->options_.snapshot.enabled;
  }
  [[nodiscard]] const obs::SnapshotConfig& snapshot_config() const {
    return engine_->options_.snapshot;
  }
  /// Names this communicator's snapshot scope ("world" for the world
  /// communicator; other communicators are unsampled until labeled).  The
  /// scheduler labels each gang "job:<id>/<algorithm>" so a job's timeline
  /// survives gang reshuffles.  Call it with the same label from every
  /// member before the first collective.
  void label_snapshots(std::string_view label) {
    engine_->core_label_snapshots(*group_, label);
  }
  /// Appends one caller-assembled pvar sample at this rank's current
  /// virtual clock (no-op while snapshots are disabled).  Used by the
  /// scheduler's dispatcher for queue-depth / bytes-in-flight series.
  void snapshot_sample(std::string_view scope, const obs::PvarSet& pvars) {
    engine_->core_snapshot_sample(rank_, scope, pvars);
  }

  /// Splits this communicator into disjoint sub-communicators, one per
  /// distinct `color` (the MPI_Comm_split analogue; a collective -- every
  /// member must call it).  Members of the new communicator are ordered by
  /// (key, rank in the parent), so equal keys preserve parent order.  The
  /// new communicator's id derives deterministically from the parent id,
  /// this communicator's split count, and the color: identical programs
  /// produce identical communicators on every run and in both executor
  /// modes.  Colors must be non-negative.
  [[nodiscard]] Comm split(int color, int key) {
    HPRS_REQUIRE(color >= 0, "split color must be non-negative, got " +
                                 std::to_string(color));
    const std::uint64_t seq = split_seq_++;
    // One (color, key) pair per member: 8 wire bytes each, the natural
    // cost of the allgather a real MPI_Comm_split performs.
    const auto pairs = allgather(std::pair<int, int>{color, key}, 8);
    std::vector<std::pair<int, int>> order;  // (key, parent local rank)
    for (std::size_t l = 0; l < pairs.size(); ++l) {
      if (pairs[l].first != color) continue;
      order.emplace_back(pairs[l].second, static_cast<int>(l));
    }
    std::sort(order.begin(), order.end());
    std::vector<int> members;
    members.reserve(order.size());
    int new_local = -1;
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (order[i].second == local_) new_local = static_cast<int>(i);
      members.push_back(group_->world_rank(order[i].second));
    }
    HPRS_ASSERT(new_local >= 0);
    std::uint64_t id = SplitMix64(group_->id ^ 0x9e3779b97f4a7c15ULL).next();
    id = SplitMix64(id ^ seq).next();
    id = SplitMix64(id ^ static_cast<std::uint64_t>(color)).next();
    if (id == 0) id = 1;  // 0 names the world communicator
    return Comm(*engine_, engine_->ensure_group(id, members), new_local);
  }

  /// Builds a sub-communicator over an explicit member list (the
  /// MPI_Comm_create_group analogue): `locals` are strictly increasing
  /// ranks of *this* communicator and must include the caller.  Only the
  /// listed ranks participate -- each must call subset() with the same
  /// `locals` and `uid` (the tag that, mixed with this communicator's id,
  /// names the new communicator deterministically).  No virtual messages
  /// are charged: the callers already agreed on the member list out of
  /// band, and that coordination carries the cost (the scheduler's
  /// dispatch messages, for example).
  [[nodiscard]] Comm subset(const std::vector<int>& locals,
                            std::uint64_t uid) {
    HPRS_REQUIRE(!locals.empty(),
                 "subset requires at least one member rank");
    int new_local = -1;
    std::vector<int> members;
    members.reserve(locals.size());
    for (std::size_t i = 0; i < locals.size(); ++i) {
      check_local(locals[i]);
      HPRS_REQUIRE(i == 0 || locals[i] > locals[i - 1],
                   "subset member ranks must be strictly increasing");
      if (locals[i] == local_) new_local = static_cast<int>(i);
      members.push_back(group_->world_rank(locals[i]));
    }
    HPRS_REQUIRE(new_local >= 0,
                 "the calling rank must be a member of its own subset");
    std::uint64_t id = SplitMix64(group_->id ^ 0xa24baed4963ee407ULL).next();
    id = SplitMix64(id ^ uid).next();
    if (id == 0) id = 1;
    return Comm(*engine_, engine_->ensure_group(id, members), new_local);
  }

  /// Advances this rank's virtual clock by flops * w_rank.  `phase` selects
  /// the accounting bucket (mark master-only steps kSequential).
  void compute(std::uint64_t flops, Phase phase = Phase::kParallel) {
    engine_->core_compute(rank_, flops, phase);
  }

  /// Charges the host->device copy of `bytes` of input data onto this
  /// rank's accelerator.  Exact no-op for non-accelerated ranks -- callers
  /// may invoke it unconditionally after receiving their partition.
  void stage_to_device(std::size_t bytes) {
    engine_->core_stage(rank_, static_cast<std::uint64_t>(bytes));
  }

  /// Enqueues an asynchronous host->device copy of `bytes` on this rank's
  /// staging pipe (one DMA engine; copies serialize against each other but
  /// overlap compute).  Returns the copy's virtual completion time without
  /// advancing the clock; 0.0 for non-accelerated ranks.  Pair with
  /// stage_wait before the compute that consumes the tile.
  [[nodiscard]] double stage_to_device_async(std::size_t bytes) {
    return engine_->core_stage_async(rank_,
                                     static_cast<std::uint64_t>(bytes));
  }

  /// Blocks until the staging completion time returned by
  /// stage_to_device_async; the exposed gap is charged as comm time,
  /// matching the synchronous stage_to_device accounting.
  void stage_wait(double until) { engine_->core_stage_wait(rank_, until); }

  /// Per-tile compute charge for a streamed sweep: the first tile pays the
  /// accelerator's fixed kernel-launch latency, subsequent tiles model
  /// kernels enqueued in the same batched launch and charge pure flops
  /// time.  Identical to compute() on non-accelerated ranks.
  void compute_tile(std::uint64_t flops, bool first_in_sweep,
                    Phase phase = Phase::kParallel) {
    engine_->core_compute(rank_, flops, phase, first_in_sweep);
  }

  void barrier() {
    io_.clear();
    collective(CollectiveKind::kBarrier, root());
  }

  /// Broadcast from `root`.  All ranks receive (a value equal to) the
  /// root's value.  The engine fans the payload out by reference; each
  /// rank materializes its own copy here, outside the engine lock.  Prefer
  /// bcast_shared for large read-only payloads -- it skips the copy
  /// entirely.
  template <typename T>
  [[nodiscard]] T bcast(int root, T value, std::size_t bytes) {
    return bcast_packet(root, value, bytes).template take_or_default<T>();
  }

  /// Broadcast from `root`, returning a shared handle to one immutable
  /// payload instead of a per-rank copy: the virtual transfers are charged
  /// exactly as bcast, but on the host all p ranks alias the root's value
  /// (zero deep copies).  Use for large payloads that downstream code only
  /// reads.
  template <typename T>
  [[nodiscard]] std::shared_ptr<const T> bcast_shared(int root, T value,
                                                      std::size_t bytes) {
    Packet out = bcast_packet(root, value, bytes);
    if (out.empty()) return nullptr;  // the root died
    if (out.shared) {
      const T* typed = std::any_cast<T>(out.shared.get());
      HPRS_ASSERT(typed != nullptr);
      return std::shared_ptr<const T>(std::move(out.shared), typed);
    }
    // Exclusive payload (p == 1): promote by move.
    return std::make_shared<const T>(std::any_cast<T>(std::move(out.value)));
  }

  /// Gather to `root`: returns every rank's value, in rank order, at the
  /// root (value-initialized for dead members); an empty vector elsewhere.
  template <typename T>
  [[nodiscard]] std::vector<T> gather(int root, T value, std::size_t bytes) {
    check_local(root);
    io_.clear();
    io_.emplace_back(std::move(value), bytes);
    collective(CollectiveKind::kGather, root);
    std::vector<T> out;
    out.reserve(io_.size());
    for (auto& p : io_) {
      out.push_back(p.take_or_default<T>());
    }
    return out;
  }

  /// Scatter from `root`: the root supplies one part per rank (with wire
  /// sizes); every rank returns its own part.  Non-root ranks pass empty
  /// vectors.
  template <typename T>
  [[nodiscard]] T scatter(int root, std::vector<T> parts,
                          const std::vector<std::size_t>& bytes) {
    check_local(root);
    io_.clear();
    if (local_ == root) {
      HPRS_REQUIRE(parts.size() == static_cast<std::size_t>(size()) &&
                       bytes.size() == parts.size(),
                   "scatter requires one part and size per rank");
      for (std::size_t i = 0; i < parts.size(); ++i) {
        io_.emplace_back(std::move(parts[i]), bytes[i]);
      }
    }
    collective(CollectiveKind::kScatter, root);
    return io_.empty() ? T{} : io_.front().take<T>();
  }

  /// Reduction to the root followed by a broadcast of the combined value
  /// (the classical NOW implementation of MPI_Allreduce; on switched
  /// fabrics both legs use the binomial-tree schedules).  `combine` folds
  /// two T into one; the root charges `combine_flops` per fold.
  template <typename T, typename F>
  [[nodiscard]] T allreduce(T value, std::size_t bytes, F combine,
                            std::uint64_t combine_flops = 0) {
    auto all = gather(root(), std::move(value), bytes);
    T result{};
    if (is_root()) {
      result = std::move(all.front());
      for (std::size_t i = 1; i < all.size(); ++i) {
        result = combine(std::move(result), std::move(all[i]));
      }
      if (combine_flops > 0 && all.size() > 1) {
        compute(combine_flops * (all.size() - 1));
      }
    }
    return bcast(root(), std::move(result), bytes);
  }

  /// Every rank receives every rank's value, in rank order (gather +
  /// broadcast of the concatenation).
  template <typename T>
  [[nodiscard]] std::vector<T> allgather(T value, std::size_t bytes) {
    auto all = gather(root(), std::move(value), bytes);
    return bcast(root(), std::move(all),
                 bytes * static_cast<std::size_t>(size()));
  }

  /// Deterministic generalized all-to-all (a collective: every rank must
  /// call it, possibly with an empty send list).  Each send is
  /// (destination, value, wire bytes); the return value holds the packets
  /// addressed to this rank as (source, value) pairs in source order.
  template <typename T>
  [[nodiscard]] std::vector<std::pair<int, T>> exchange(
      std::vector<std::tuple<int, T, std::size_t>> sends) {
    io_.clear();
    for (auto& [dst, value, bytes] : sends) {
      io_.emplace_back(std::move(value), bytes, dst);
    }
    collective(CollectiveKind::kExchange, root());
    std::vector<std::pair<int, T>> out;
    out.reserve(io_.size());
    for (auto& packet : io_) {
      out.emplace_back(packet.peer, packet.template take<T>());
    }
    return out;
  }

  /// Blocking (rendezvous) point-to-point send.  Messages match on (world
  /// source, world destination, tag), so communicators over disjoint rank
  /// sets can reuse tags freely; communicators sharing a rank pair must
  /// use disjoint tags (as within a single MPI communicator).
  template <typename T>
  void send(int dst, T value, std::size_t bytes, int tag = 0) {
    engine_->core_send(rank_, world_rank_of(dst), tag,
                       Packet{std::move(value), bytes}, group_->id,
                       /*tolerant=*/false);
  }

  /// Blocking point-to-point receive from a specific source and tag.
  template <typename T>
  [[nodiscard]] T recv(int src, int tag = 0) {
    std::optional<Packet> p =
        engine_->core_recv(rank_, world_rank_of(src), tag, /*tolerant=*/false);
    return p->take<T>();
  }

  // --- fault-tolerant point-to-point (see vmpi/fault.hpp) ---

  /// Rendezvous send that survives a dead peer: true when `dst` received
  /// the message; false when `dst` crashed without matching it, in which
  /// case this rank's clock advances one virtual heartbeat
  /// (Options::fault_detection_s) past the peer's death, charged as
  /// detection overhead in RunReport::recovery.
  template <typename T>
  [[nodiscard]] bool try_send(int dst, T value, std::size_t bytes,
                              int tag = 0) {
    return engine_->core_send(rank_, world_rank_of(dst), tag,
                              Packet{std::move(value), bytes}, group_->id,
                              /*tolerant=*/true);
  }

  /// Receive that survives a dead peer: the value when `src` delivered one
  /// (messages posted before the sender's death are still delivered);
  /// nullopt when `src` is dead with nothing pending, with the same
  /// detection accounting as try_send.
  template <typename T>
  [[nodiscard]] std::optional<T> try_recv(int src, int tag = 0) {
    std::optional<Packet> p =
        engine_->core_recv(rank_, world_rank_of(src), tag, /*tolerant=*/true);
    if (!p.has_value()) return std::nullopt;
    return p->take<T>();
  }

  /// RAII marker for re-executed work: compute charged while at least one
  /// scope is open is additionally counted as recomputed overhead in
  /// RunReport::recovery.
  class RecoveryScope {
   public:
    explicit RecoveryScope(Comm& comm) : comm_(&comm) {
      comm_->engine_->core_set_recovery(comm_->rank_, true);
    }
    ~RecoveryScope() { comm_->engine_->core_set_recovery(comm_->rank_, false); }
    RecoveryScope(const RecoveryScope&) = delete;
    RecoveryScope& operator=(const RecoveryScope&) = delete;

   private:
    Comm* comm_;
  };

  /// Tags `seconds` of already-charged time on this rank as redistribution
  /// overhead (the collective driver's root calls this around re-placing
  /// and re-staging lost work).
  void note_redistribution(double seconds) {
    engine_->core_note_redistribution(rank_, seconds);
  }

 private:
  /// Runs one collective over io_: this rank's contribution in, its result
  /// out (Engine::core_collective).  A tolerant handle takes the dead set
  /// into failed_; a default one lets the engine throw instead.
  void collective(CollectiveKind kind, int root) {
    engine_->core_collective(*group_, local_, kind, root, io_,
                             tolerant_ ? &failed_ : nullptr);
  }

  /// bcast and bcast_shared: the root's packet, as every member receives
  /// it; empty when the root died.  Only the root's value is staged.
  template <typename T>
  [[nodiscard]] Packet bcast_packet(int root, T& value, std::size_t bytes) {
    check_local(root);
    io_.clear();
    if (local_ == root) io_.emplace_back(std::move(value), bytes);
    collective(CollectiveKind::kBcast, root);
    return io_.empty() ? Packet{} : std::move(io_.front());
  }

  void check_local(int local) const {
    HPRS_REQUIRE(local >= 0 && local < size(),
                 "rank " + std::to_string(local) +
                     " out of range for a communicator of size " +
                     std::to_string(size()));
  }

  Engine* engine_;
  Group* group_;
  int local_;  ///< rank within group_
  int rank_;   ///< rank on the engine's full platform
  /// Number of split() calls issued through this Comm; part of the derived
  /// child-communicator id.  split() is collective, so every member's
  /// counter agrees.
  std::uint64_t split_seq_ = 0;
  bool tolerant_ = false;
  std::vector<int> failed_;
  /// The one collective staging buffer (this Comm is single-context, see
  /// the file comment).
  std::vector<Packet> io_;
};

}  // namespace hprs::vmpi
