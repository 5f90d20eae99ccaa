// Rank-facing communicator: the typed API algorithms program against.
//
// Mirrors the MPI operations the paper's algorithms need (compute charging
// plus barrier / broadcast / gather / scatter / point-to-point), with
// explicit wire sizes per payload -- see vmpi/packet.hpp for why sizes are
// explicit.  One Comm instance exists per rank for the duration of
// Engine::run and is only ever used by that rank's execution context; its
// staging buffers give repeated collectives allocation-free steady state.
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
  /// Renames this communicator's snapshot scope (default "comm_<id>",
  /// "world" for the world communicator).  The scheduler labels each gang
  /// "job:<id>/<algorithm>" so a job's timeline survives gang reshuffles.
  /// Call it with the same label from every member before the first
  /// collective.
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

  void barrier() { engine_->core_barrier(*group_, local_); }

  /// Broadcast from `root`.  All ranks receive (a value equal to) the
  /// root's value.  The engine fans the payload out by reference; each
  /// rank materializes its own copy here, outside the engine lock.  Prefer
  /// bcast_shared for large read-only payloads -- it skips the copy
  /// entirely.
  template <typename T>
  [[nodiscard]] T bcast(int root, T value, std::size_t bytes) {
    check_local(root);
    Packet out = engine_->core_bcast(
        *group_, local_, root, Packet{std::move(value), bytes});
    return out.take<T>();
  }

  /// Broadcast from `root`, returning a shared handle to one immutable
  /// payload instead of a per-rank copy: the virtual transfers are charged
  /// exactly as bcast, but on the host all p ranks alias the root's value
  /// (zero deep copies).  Use for large payloads that downstream code only
  /// reads.
  template <typename T>
  [[nodiscard]] std::shared_ptr<const T> bcast_shared(int root, T value,
                                                      std::size_t bytes) {
    check_local(root);
    Packet out = engine_->core_bcast(
        *group_, local_, root, Packet{std::move(value), bytes});
    if (out.shared) {
      const T* typed = std::any_cast<T>(out.shared.get());
      HPRS_ASSERT(typed != nullptr);
      return std::shared_ptr<const T>(std::move(out.shared), typed);
    }
    // Exclusive payload (p == 1): promote by move.
    return std::make_shared<const T>(std::any_cast<T>(std::move(out.value)));
  }

  /// Gather to `root`: returns every rank's value, in rank order, at the
  /// root; an empty vector elsewhere.
  template <typename T>
  [[nodiscard]] std::vector<T> gather(int root, T value, std::size_t bytes) {
    check_local(root);
    std::vector<Packet> packets = engine_->core_gather(
        *group_, local_, root, Packet{std::move(value), bytes});
    std::vector<T> out;
    out.reserve(packets.size());
    for (auto& p : packets) {
      out.push_back(p.take<T>());
    }
    engine_->core_recycle_gather(rank_, std::move(packets));
    return out;
  }

  /// Scatter from `root`: the root supplies one part per rank (with wire
  /// sizes); every rank returns its own part.  Non-root ranks pass empty
  /// vectors.
  template <typename T>
  [[nodiscard]] T scatter(int root, std::vector<T> parts,
                          const std::vector<std::size_t>& bytes) {
    check_local(root);
    scatter_stage_.clear();
    if (local_ == root) {
      HPRS_REQUIRE(parts.size() == static_cast<std::size_t>(size()) &&
                       bytes.size() == parts.size(),
                   "scatter requires one part and size per rank");
      scatter_stage_.reserve(parts.size());
      for (std::size_t i = 0; i < parts.size(); ++i) {
        scatter_stage_.push_back(Packet{std::move(parts[i]), bytes[i]});
      }
    }
    Packet mine = engine_->core_scatter(*group_, local_, root, scatter_stage_);
    scatter_stage_.clear();
    return mine.take<T>();
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
    exchange_stage_.clear();
    exchange_stage_.reserve(sends.size());
    for (auto& [dst, value, bytes] : sends) {
      exchange_stage_.emplace_back(dst, Packet{std::move(value), bytes});
    }
    auto received = engine_->core_exchange(*group_, local_, exchange_stage_);
    exchange_stage_.clear();
    std::vector<std::pair<int, T>> out;
    out.reserve(received.size());
    for (auto& [src, packet] : received) {
      out.emplace_back(src, packet.template take<T>());
    }
    engine_->core_recycle_exchange(rank_, std::move(received));
    return out;
  }

  /// Blocking (rendezvous) point-to-point send.  Messages match on (world
  /// source, world destination, tag), so communicators over disjoint rank
  /// sets can reuse tags freely; communicators sharing a rank pair must
  /// use disjoint tags (as within a single MPI communicator).
  template <typename T>
  void send(int dst, T value, std::size_t bytes, int tag = 0) {
    engine_->core_send(rank_, world_rank_of(dst), tag,
                       Packet{std::move(value), bytes}, group_->id);
  }

  /// Blocking point-to-point receive from a specific source and tag.
  template <typename T>
  [[nodiscard]] T recv(int src, int tag = 0) {
    Packet p = engine_->core_recv(rank_, world_rank_of(src), tag);
    return p.take<T>();
  }

  // --- fault-tolerant point-to-point (see vmpi/fault.hpp) ---

  /// Rendezvous send that survives a dead peer: true when `dst` received
  /// the message; false when `dst` crashed without matching it, in which
  /// case this rank's clock advances one virtual heartbeat (`timeout_s`,
  /// or Options::fault_detection_s when negative) past the peer's death,
  /// charged as detection overhead in RunReport::recovery.
  template <typename T>
  [[nodiscard]] bool try_send(int dst, T value, std::size_t bytes, int tag = 0,
                              double timeout_s = -1.0) {
    return engine_->core_try_send(rank_, world_rank_of(dst), tag,
                                  Packet{std::move(value), bytes},
                                  resolve_timeout(timeout_s), group_->id);
  }

  /// Receive that survives a dead peer: the value when `src` delivered one
  /// (messages posted before the sender's death are still delivered);
  /// nullopt when `src` is dead with nothing pending, with the same
  /// detection accounting as try_send.
  template <typename T>
  [[nodiscard]] std::optional<T> try_recv(int src, int tag = 0,
                                          double timeout_s = -1.0) {
    std::optional<Packet> p = engine_->core_try_recv(
        rank_, world_rank_of(src), tag, resolve_timeout(timeout_s));
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
  /// overhead (the fault-tolerant master calls this around re-partitioning
  /// and re-issuing lost work).
  void note_redistribution(double seconds) {
    engine_->core_note_redistribution(rank_, seconds);
  }

 private:
  [[nodiscard]] double resolve_timeout(double timeout_s) const {
    return timeout_s >= 0.0 ? timeout_s : engine_->options_.fault_detection_s;
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
  // Reused staging buffers (this Comm is single-context, see the class
  // comment): collective inputs are moved through these instead of a fresh
  // vector per call.
  std::vector<Packet> scatter_stage_;
  std::vector<std::pair<int, Packet>> exchange_stage_;
};

}  // namespace hprs::vmpi
