// One algorithm, one driver (paper Sect. 6 outlook: "fault tolerance ...
// on networks of workstations").
//
// Each algorithm is written once, as a `Program` (core/ft_programs.hpp).
// The root runs the WEA once and freezes the result as `Chunk`s -- the
// original full-world partitions, including MORPH halo rows.  Each phase is
// a `Handler`: chunk (+ an optional shared payload such as the current
// target matrix) -> result blob; the same closure runs on every rank.  The
// Program's control flow issues the phases through a `PhaseDriver` and
// folds their results in ascending chunk id.
//
// CollectiveDriver runs it as the paper's SPMD schedule: every rank runs
// the control flow and owns its own chunk; a phase is a broadcast of the
// payload, the handler on the rank's chunks, and a gather to the root.
// Root-only folds and their SEQ charges sit behind comm.is_root().  This is
// the schedule the paper tables price.
//
// The same driver survives non-root crashes.  Its collectives run on a
// vmpi::Comm::tolerant() handle, so a collective that lost a member still
// resolves, and every survivor learns the same dead set (DESIGN.md §9).
// The survivors shrink to a new communicator, the root re-places the dead
// ranks' chunks with `place` and ships them to their adopters (the
// re-stage), and the adopters recompute them under Comm::RecoveryScope.
// Chunks are atomic -- reassigned whole, never split -- so a recomputed
// chunk reproduces the lost result bit for bit, and folding in chunk-id
// order keeps the outputs equal to a fault-free run.
#pragma once

#include <any>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/partition.hpp"
#include "hsi/cube.hpp"
#include "simnet/platform.hpp"
#include "vmpi/comm.hpp"

namespace hprs::core {
namespace detail {
struct ChunkState;
}  // namespace detail

namespace ft {

/// One atomic unit of work: an original WEA partition, identified by its
/// position in the full partition (== the rank that owns it in a
/// fault-free run).
struct Chunk {
  int id = -1;
  RowPartition part;
  /// The owning rank's state for this chunk (core/spmd_common.hpp): the
  /// tile plan sweeping handlers walk and the projection cache ATDCA and
  /// UFCLS keep across rounds.  Set when the chunk is dealt; owned by the
  /// driver that dealt it.
  detail::ChunkState* state = nullptr;
};

/// Wire size of one chunk descriptor (row range, halo range, cube geometry,
/// resume depth), dealt in place of the block when data is pre-staged on
/// the nodes (see DESIGN.md on data staging).
inline constexpr std::size_t kChunkDescriptorBytes = 64;

/// What a handler returns for one chunk: the result blob plus its wire size
/// (the bytes the owner charges when gathering it to the root).
struct ChunkOutcome {
  std::any value;
  std::size_t bytes = 0;
};

/// A phase kernel, run identically on every rank.  `payload` is the phase's
/// shared state (null when the phase has none); handlers charge their own
/// virtual compute via `comm`.
using Handler =
    std::function<ChunkOutcome(vmpi::Comm& comm, const Chunk& chunk,
                               const std::any* payload)>;

/// The phase-issuing interface the algorithm control flows program against.
/// CollectiveDriver implements it; the scheduler's checkpointing decorator
/// (sched::ResilientDriver) wraps one to replay completed phases from a
/// checkpoint and snapshot progress at phase boundaries.
class PhaseDriver {
 public:
  virtual ~PhaseDriver() = default;

  /// Runs one phase over all chunks and returns the per-chunk results,
  /// indexed by chunk id, at the root (empty elsewhere).  Every rank calls
  /// this with a payload exactly when the root does (non-roots pass an
  /// empty value); only the root's payload and bytes count.
  [[nodiscard]] virtual std::vector<std::any> phase(
      const Handler& handler, std::shared_ptr<const std::any> payload = nullptr,
      std::size_t payload_bytes = 0) = 0;

  /// Ships `payload` once more without running a phase: the collective
  /// schedule's loop-exit broadcast of the final target matrix (ATDCA,
  /// UFCLS), which Tables 5-8 price.
  virtual void release(std::shared_ptr<const std::any> payload,
                       std::size_t payload_bytes) = 0;
};

/// One algorithm: the phase handlers (run on every rank), the control flow
/// (phase issue order plus the root-only folds), and the WEA parameters
/// that freeze the chunk list.  Factories live in core/ft_programs.hpp;
/// run_collective and the scheduler's gang runtime consume this.
struct Program {
  std::vector<Handler> handlers;
  /// Control flow.  Runs on every rank with the driver and the program's
  /// handlers, so root-only work sits behind comm.is_root().
  std::function<void(vmpi::Comm&, PhaseDriver&, const std::vector<Handler>&)>
      master;
  /// WEA inputs for the chunk freeze; model.scatter_input also charges the
  /// full block (not a descriptor) whenever a chunk is dealt or re-staged,
  /// and model.tile_stream stages each chunk per tile instead of upfront.
  WorkloadModel model;
  PartitionPolicy policy = PartitionPolicy::kHeterogeneous;
  double memory_fraction = 0.5;
  /// Halo rows per side (MORPH's kernel radius; 0 elsewhere).
  std::size_t overlap = 0;
  /// The virtual-scale knob: each physical pixel stands for `replication`
  /// identical scene pixels, so per-pixel virtual costs (compute charges,
  /// block wire sizes) are multiplied by it while the numerics run once.
  /// Every algorithm does identical independent work per pixel, so this
  /// linear extrapolation to the paper's full 2133x512 scene is exact
  /// (DESIGN.md discusses the substitution).
  std::size_t replication = 1;
  /// Rows per tile of the tile plan (linalg::resolve_tile_rows).
  std::size_t tile_rows = 0;
  /// Why a recomputed chunk could not reproduce a lost result (MORPH's
  /// halo-exchange mode needs its neighbours' rows); empty when it can.
  /// run_on_engine refuses crash plans for such a program.
  std::string unrecoverable;
};

/// Thrown on the survivors when the root died: nothing can finish the
/// phase.  Solo runs reject root crashes up front (require_recoverable);
/// the scheduler's gang members return to the worker pool.
class RootLost : public Error {
 public:
  using Error::Error;
};

/// The driver.  Constructing it deals the chunks -- a fresh WEA partition,
/// or `frozen` (root only: a checkpointed chunk list from a gang of any
/// width, spread with `place`) -- and every phase then runs over them,
/// recovering in place from non-root crashes.
class CollectiveDriver final : public PhaseDriver {
 public:
  /// `comm` must be a tolerant() handle; the driver replaces it with the
  /// survivors' communicator after a failure, so the caller continues on
  /// the survivors too.  `resume_depth` (root only) is shipped to every
  /// rank with its chunks: the number of leading phases the caller replays
  /// from a checkpoint instead of issuing.  An error at the root (no
  /// memory for a chunk) is shipped the same way, so every rank throws it.
  CollectiveDriver(vmpi::Comm& comm, const hsi::HsiCube& cube,
                   const Program& prog, std::vector<Chunk> frozen = {},
                   int resume_depth = 0);
  ~CollectiveDriver() override;
  CollectiveDriver(const CollectiveDriver&) = delete;
  CollectiveDriver& operator=(const CollectiveDriver&) = delete;

  [[nodiscard]] std::vector<std::any> phase(
      const Handler& handler, std::shared_ptr<const std::any> payload = nullptr,
      std::size_t payload_bytes = 0) override;
  void release(std::shared_ptr<const std::any> payload,
               std::size_t payload_bytes) override;

  /// Broadcasts the root's `payload` to every survivor (recovering from any
  /// crash it reveals) and returns it.
  std::shared_ptr<const std::any> share(std::shared_ptr<const std::any> payload,
                                        std::size_t payload_bytes);

  /// The frozen chunk list (root only; checkpoint export: chunks are
  /// immutable for the lifetime of the job, across restarts and resizes).
  [[nodiscard]] const std::vector<Chunk>& chunks() const { return chunks_; }
  /// The resume depth the root dealt.
  [[nodiscard]] int resume_depth() const { return resume_depth_; }

 private:
  struct Deal;
  /// Root: the chunk list and its first owners -- a fresh WEA partition,
  /// or `frozen` spread over this gang.  Throws hprs::Error when the gang
  /// cannot hold it.
  void freeze(std::vector<Chunk> frozen);
  /// Ships every rank its share of a (re-)distribution and stages what it
  /// receives (adopted_ when `recovery`, else owned_).
  void deal(std::vector<Deal> deals, bool recovery);
  /// The one placement rule of elastic restart and fault recovery: the
  /// rank that would finish `chunk` earliest given its `load` (owned rows),
  /// within its memory budget given `held` (partition bytes), lowest rank
  /// on ties.  Books the chunk there and returns that rank, or -1 when no
  /// rank has the memory.
  [[nodiscard]] int place(const Chunk& chunk, std::vector<double>& load,
                          std::vector<double>& held) const;
  /// After a collective reported dead members: shrinks to the survivors,
  /// re-places the dead ranks' chunks and deals them to their adopters.
  void recover();

  vmpi::Comm* comm_;
  const hsi::HsiCube* cube_;
  const Program* prog_;
  int resume_depth_ = 0;
  /// Root: every chunk, by id, and the local rank currently owning it.
  std::vector<Chunk> chunks_;
  std::vector<int> owner_;
  /// This rank's chunks, ascending id; `adopted_` joined during the current
  /// phase and are (re)computed under Comm::RecoveryScope.
  std::vector<Chunk> owned_;
  std::vector<Chunk> adopted_;
  /// States of the chunks dealt to this rank (stable addresses for
  /// Chunk::state).
  std::vector<std::unique_ptr<detail::ChunkState>> states_;
};

/// Runs `prog` over `comm` under a CollectiveDriver (on a tolerant handle
/// of `comm`).  Only the root's result struct is populated.
void run_collective(vmpi::Comm& comm, const hsi::HsiCube& cube,
                    const Program& prog);

/// The run_* entry points' engine run: `prog` under run_collective on a
/// fresh engine over `platform`.  Rejects crash plans it cannot survive
/// (require_recoverable).
[[nodiscard]] vmpi::RunReport run_on_engine(const simnet::Platform& platform,
                                            const hsi::HsiCube& cube,
                                            const Program& prog,
                                            const vmpi::Options& options);

/// Validates that a fault plan spares the root (the single point of
/// control) and crashes nothing when prog.unrecoverable is set.  Throws
/// hprs::Error otherwise.
void require_recoverable(const Program& prog, const vmpi::Options& options);

/// Moves each per-chunk phase result out as a T (empty off the root).
template <typename T>
[[nodiscard]] std::vector<T> results_as(std::vector<std::any> results) {
  std::vector<T> out;
  out.reserve(results.size());
  for (auto& r : results) out.push_back(std::any_cast<T>(std::move(r)));
  return out;
}

}  // namespace ft
}  // namespace hprs::core
