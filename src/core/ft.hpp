// One algorithm, two drivers (paper Sect. 6 outlook: "fault tolerance ...
// on networks of workstations").
//
// Each algorithm is written once, as a `Program` (core/ft_programs.hpp).
// The master runs the WEA once and freezes the result as `Chunk`s -- the
// original full-world partitions, including MORPH halo rows.  Each phase is
// a `Handler`: chunk (+ an optional shared payload such as the current
// target matrix) -> result blob; the same closure runs on every rank.  The
// Program's control flow issues the phases through a `PhaseDriver` and
// folds their results in ascending chunk id.  Two drivers run it:
//
//  * run_collective -- the paper's SPMD schedule.  Every rank runs the
//    control flow and owns exactly its own chunk; a phase is a broadcast of
//    the payload, the handler on that chunk, and a gather to the root.
//    Root-only folds and their SEQ charges sit behind comm.is_root().
//    This is the schedule the paper tables price.
//
//  * run_program (Master) -- a master/worker protocol that only ever uses
//    point-to-point operations between the (immortal) root and the
//    workers, so the master can outlive worker crashes.  Chunks are atomic:
//    they are reassigned whole, never split, so the per-chunk
//    floating-point accumulation order is independent of which rank
//    computes the chunk, and a recomputed chunk reproduces the lost result
//    bit for bit.  The master issues a `Command` to every live worker
//    (Comm::try_send, ascending rank order), computes its own chunks, and
//    collects a `PhaseResult` from each commanded worker (Comm::try_recv,
//    ascending rank order).  A false/nullopt marks the worker dead (the
//    engine charges the detection heartbeat); the master then re-runs the
//    WEA over the survivors -- respecting each node's memory bound --
//    adopts the orphaned chunks, and re-issues them with Command::recovery
//    set so the recomputation is tagged as recovery overhead
//    (Comm::RecoveryScope).
//
// Folding in ascending chunk id reproduces the collective gather's rank
// order, so a fault-tolerant run's outputs (targets, labels) equal the
// collective outputs exactly, with or without crashes.  The two drivers'
// virtual schedules differ (broadcast trees and gathers vs. per-worker
// commands and results); DESIGN.md section 9 records why.
//
// Determinism: every master/worker transfer has the root as one endpoint,
// and the master holds at most one operation in flight (try_send blocks
// until matched or the peer's death is detected), so the virtual transfer
// schedule is serialized by the master's program order regardless of host
// scheduling or execution mode.
#pragma once

#include <any>
#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "core/partition.hpp"
#include "hsi/cube.hpp"
#include "simnet/platform.hpp"
#include "vmpi/engine.hpp"

namespace hprs::core {
namespace detail {
struct TileStream;
}  // namespace detail

namespace ft {

/// One atomic unit of work: an original WEA partition, identified by its
/// position in the full-world partition (== the rank that owns it in the
/// collective schedule).
struct Chunk {
  int id = -1;
  RowPartition part;
  /// The rank's tile plan (core/spmd_common.hpp), attached by the
  /// collective driver only; sweeping handlers walk it when present.
  const detail::TileStream* tiles = nullptr;
};

/// Wire size of one chunk descriptor inside a Command (row range, halo
/// range, phase id -- mirrors detail::kPartitionDescriptorBytes).
inline constexpr std::size_t kChunkDescriptorBytes = 64;
/// Wire overhead per chunk result in a PhaseResult (chunk id + framing).
inline constexpr std::size_t kResultHeaderBytes = 8;

/// Reserved tags of the master/worker protocol.
inline constexpr int kCommandTag = 7001;
inline constexpr int kResultTag = 7002;

/// What a handler returns for one chunk: the result blob plus its wire size
/// (the bytes the worker charges when shipping it back to the master).
struct ChunkOutcome {
  std::any value;
  std::size_t bytes = 0;
};

/// A phase kernel, run identically on master and workers.  `payload` is the
/// phase's shared state (null when the phase has none); handlers charge
/// their own virtual compute via `comm`.
using Handler =
    std::function<ChunkOutcome(vmpi::Comm& comm, const Chunk& chunk,
                               const std::any* payload)>;

/// A master -> worker message: run `phase` over `chunks`, or exit when
/// `phase` is negative.  The payload is shared (never mutated) across all
/// ranks of the host process; its wire size is charged per worker.
struct Command {
  int phase = -1;
  bool recovery = false;
  std::shared_ptr<const std::any> payload;
  std::vector<Chunk> chunks;
};

struct ChunkResult {
  int chunk = -1;
  std::any value;
};

/// A worker -> master message: the results of one Command, in the order the
/// chunks were listed.
struct PhaseResult {
  std::vector<ChunkResult> results;
};

/// The worker side of the master/worker protocol: executes Commands from
/// the root until told to finish.  `handlers[k]` serves phase k.  Every
/// operation toward the root is a try-variant, so a mortal root (a gang
/// leader under src/sched/resilience) is detected dead instead of
/// deadlocking or poisoning the engine; against a live root try_send and
/// try_recv are accounted exactly like send and recv.  Returns true when
/// the root released this worker with the exit command, false when the
/// root was detected dead (the caller then reports itself free to whatever
/// outer control plane owns it).
[[nodiscard]] bool resilient_worker_loop(vmpi::Comm& comm,
                                         const std::vector<Handler>& handlers);

/// Abstract phase-issuing interface the algorithm control flows program
/// against.  The collective driver (run_collective) and Master implement
/// it; the scheduler's checkpointing decorator (sched::ResilientDriver)
/// wraps a Master to replay completed phases from a checkpoint and
/// snapshot progress at phase boundaries.
class PhaseDriver {
 public:
  virtual ~PhaseDriver() = default;

  /// Runs one phase over all chunks and returns the per-chunk results,
  /// indexed by chunk id, at the root (empty elsewhere).  Blocks (in
  /// virtual time) until every chunk has a result, adopting orphans of
  /// crashed workers as needed.  Throws hprs::Error when the surviving
  /// memory cannot hold the orphans.  Under the collective driver every
  /// rank calls this with a payload exactly when the root does (non-roots
  /// pass an empty value); only the root's payload and bytes count.
  [[nodiscard]] virtual std::vector<std::any> phase(
      int phase_id, const Handler& handler,
      std::shared_ptr<const std::any> payload = nullptr,
      std::size_t payload_bytes = 0) = 0;

  /// Ships `payload` once more without running a phase: the collective
  /// schedule's loop-exit broadcast of the final target matrix (ATDCA,
  /// UFCLS), which Tables 5-8 price.  A no-op for the master/worker
  /// drivers, whose payloads only travel inside phase commands.
  virtual void release(std::shared_ptr<const std::any> /*payload*/,
                       std::size_t /*payload_bytes*/) {}

  /// Releases the surviving workers (idempotent: only the first call sends
  /// exit commands, so a caller-side release followed by a run_program
  /// backstop charges nothing twice).  A no-op under the collective driver.
  virtual void finish() = 0;
};

/// The master side of the protocol.  Constructed with the frozen full-world
/// partition; `phase()` runs one handler over every chunk, surviving any
/// worker crashes; `finish()` releases the surviving workers.
class Master final : public PhaseDriver {
 public:
  /// `bytes_per_pixel` and `replication` size the staging transfer charged
  /// the first time a chunk lands on a rank (only when `charge_staging`;
  /// otherwise descriptors are charged, matching distribute_partitions).
  Master(vmpi::Comm& comm, std::vector<RowPartition> parts,
         PartitionPolicy policy, double memory_fraction, std::size_t cols,
         std::size_t bytes_per_pixel, std::size_t replication,
         bool charge_staging);

  /// Resume / elastic-restart construction: adopts an explicit frozen chunk
  /// list (typically exported from a checkpoint of an earlier, differently
  /// sized gang).  When the list has exactly one chunk per rank the
  /// assignment is the identity, matching the primary constructor; for any
  /// other width the chunks are spread with the recovery path's placement
  /// rule (place), in ascending chunk-id order.  Because chunks are atomic and folds run
  /// in chunk-id order, a resumed run's outputs equal the original gang's
  /// regardless of the new width.
  Master(vmpi::Comm& comm, std::vector<Chunk> chunks, PartitionPolicy policy,
         double memory_fraction, std::size_t cols, std::size_t bytes_per_pixel,
         std::size_t replication, bool charge_staging);

  Master(const Master&) = delete;
  Master& operator=(const Master&) = delete;

  [[nodiscard]] std::vector<std::any> phase(
      int phase_id, const Handler& handler,
      std::shared_ptr<const std::any> payload = nullptr,
      std::size_t payload_bytes = 0) override;

  void finish() override;

  /// Workers currently believed alive (excludes the root).
  [[nodiscard]] int live_workers() const;

  /// The frozen chunk list (checkpoint export: chunks are immutable for the
  /// lifetime of the job, across restarts and resizes).
  [[nodiscard]] const std::vector<Chunk>& chunks() const { return chunks_; }

 private:
  [[nodiscard]] std::size_t chunk_block_bytes(const Chunk& chunk) const;
  /// The one placement rule of elastic restart and fault recovery: the
  /// live rank that would finish `chunk` earliest given its `load` (owned
  /// rows), within its memory budget given `held` (partition bytes), lowest
  /// rank on ties.  Books the chunk there and returns that rank, or -1 when
  /// no live rank has the memory.
  [[nodiscard]] int place(const Chunk& chunk, std::vector<double>& load,
                          std::vector<double>& held) const;
  /// Re-runs the WEA over the survivors and adopts the chunks in `missing`
  /// whose assigned rank died.  Charges the master's re-partitioning work.
  void reassign_lost(const std::vector<bool>& have);

  vmpi::Comm* comm_;
  PartitionPolicy policy_;
  double memory_fraction_;
  std::size_t cols_;
  std::size_t bytes_per_pixel_;
  std::size_t replication_;
  bool charge_staging_;
  bool finished_ = false;
  std::vector<Chunk> chunks_;
  std::vector<int> assignment_;             // chunk id -> rank
  std::vector<bool> alive_;                 // rank -> believed alive
  std::vector<std::vector<bool>> staged_;   // chunk id -> rank -> data present
};

/// One algorithm: the phase handlers (run on every rank), the root-side
/// control flow (phase issue order plus the root-only folds), and the WEA
/// parameters that freeze the chunk list.  Factories live in
/// core/ft_programs.hpp; run_collective, run_program and the scheduler's
/// gang runtimes all consume this.
struct Program {
  std::vector<Handler> handlers;
  /// Control flow.  Receives the driver (phase issuing) and the program's
  /// handlers.  Under the master/worker drivers it runs on the root only;
  /// under the collective driver it runs on every rank, so root-only work
  /// sits behind comm.is_root().  Must call driver.finish() at the point
  /// the master releases its workers (finish is idempotent, so
  /// run_program's backstop charges nothing on the normal path).
  std::function<void(vmpi::Comm&, PhaseDriver&, const std::vector<Handler>&)>
      master;
  /// WEA inputs for the chunk freeze; model.scatter_input doubles as the
  /// staging-charge toggle (Master's charge_staging).
  WorkloadModel model;
  PartitionPolicy policy = PartitionPolicy::kHeterogeneous;
  double memory_fraction = 0.5;
  /// Halo rows per side (MORPH's kernel radius; 0 elsewhere).
  std::size_t overlap = 0;
  std::size_t replication = 1;
  /// The collective driver's tile plan (linalg::resolve_tile_rows) and
  /// per-tile streamed staging; the master/worker drivers ignore both.
  std::size_t tile_rows = 0;
  bool tile_stream = false;
};

/// Runs `prog` over `comm` as the collective SPMD schedule: every rank
/// receives its WEA partition (distribute_partitions) with a tile plan
/// attached, then runs prog.master, whose phases broadcast their payload,
/// run the handler on the rank's own chunk and gather to the root.  Only
/// the root's result struct is populated.
void run_collective(vmpi::Comm& comm, const hsi::HsiCube& cube,
                    const Program& prog);

/// Runs `prog` over `comm` with the master/worker protocol: non-root ranks
/// serve resilient_worker_loop; the root runs the WEA once, freezes the
/// chunks, and hands a Master to prog.master.
void run_program(vmpi::Comm& comm, const hsi::HsiCube& cube,
                 const Program& prog);

/// The run_* entry points' engine run: `prog` on a fresh engine over
/// `platform`, under run_program when `fault_tolerant` (the fault plan must
/// spare the root), else under run_collective.
[[nodiscard]] vmpi::RunReport run_on_engine(const simnet::Platform& platform,
                                            const hsi::HsiCube& cube,
                                            const Program& prog,
                                            bool fault_tolerant,
                                            const vmpi::Options& options);

/// Moves each per-chunk phase result out as a T (empty off the root).
template <typename T>
[[nodiscard]] std::vector<T> results_as(std::vector<std::any> results) {
  std::vector<T> out;
  out.reserve(results.size());
  for (auto& r : results) out.push_back(std::any_cast<T>(std::move(r)));
  return out;
}

/// Validates that a fault plan never kills `root` (the protocol's single
/// point of control).  Throws hprs::Error otherwise.
void require_immortal_root(const vmpi::Options& options);

}  // namespace ft
}  // namespace hprs::core
