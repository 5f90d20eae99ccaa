#include "core/ft.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "core/spmd_common.hpp"
#include "obs/metrics.hpp"

namespace hprs::core::ft {

namespace {

// Recovery decisions are pure functions of the virtual protocol (who died,
// when, which chunks were theirs), so these counters are Domain::kStable
// and golden-comparable.  The recovery path runs at most a few times per
// program, so publishing directly (registry mutex and all) is fine here.
void note_worker_lost() { obs::Metrics::instance().add("ft.workers_lost", 1); }

}  // namespace

bool resilient_worker_loop(vmpi::Comm& comm,
                           const std::vector<Handler>& handlers) {
  const int root = comm.root();
  while (true) {
    auto cmd = comm.try_recv<Command>(root, kCommandTag);
    if (!cmd.has_value()) return false;  // root died with nothing pending
    if (cmd->phase < 0) return true;     // graceful release
    HPRS_REQUIRE(static_cast<std::size_t>(cmd->phase) < handlers.size(),
                 "fault-tolerant worker received a command for phase " +
                     std::to_string(cmd->phase) + " but only " +
                     std::to_string(handlers.size()) + " handlers exist");
    const Handler& handler = handlers[static_cast<std::size_t>(cmd->phase)];
    const std::any* payload = cmd->payload ? cmd->payload.get() : nullptr;
    PhaseResult out;
    out.results.reserve(cmd->chunks.size());
    std::size_t bytes = 0;
    {
      std::optional<vmpi::Comm::RecoveryScope> scope;
      if (cmd->recovery) scope.emplace(comm);
      for (const Chunk& chunk : cmd->chunks) {
        ChunkOutcome oc = handler(comm, chunk, payload);
        bytes += oc.bytes + kResultHeaderBytes;
        out.results.push_back(ChunkResult{chunk.id, std::move(oc.value)});
      }
    }
    // try_send: a root that crashed while we computed is detected here
    // (the next try_recv then reports it); a live root matches this
    // exactly like a plain send.
    if (!comm.try_send(root, std::move(out), bytes, kResultTag)) {
      return false;
    }
  }
}

Master::Master(vmpi::Comm& comm, std::vector<RowPartition> parts,
               PartitionPolicy policy, double memory_fraction,
               std::size_t cols, std::size_t bytes_per_pixel,
               std::size_t replication, bool charge_staging)
    : comm_(&comm),
      policy_(policy),
      memory_fraction_(memory_fraction),
      cols_(cols),
      bytes_per_pixel_(bytes_per_pixel),
      replication_(replication),
      charge_staging_(charge_staging) {
  HPRS_REQUIRE(comm.is_root(),
               "ft::Master must be constructed on the root rank");
  HPRS_REQUIRE(parts.size() == static_cast<std::size_t>(comm.size()),
               "one initial chunk per rank expected");
  const std::size_t p = parts.size();
  chunks_.reserve(p);
  assignment_.reserve(p);
  staged_.reserve(p);
  for (std::size_t i = 0; i < p; ++i) {
    chunks_.push_back(Chunk{static_cast<int>(i), parts[i]});
    assignment_.push_back(static_cast<int>(i));
    // The master's own chunk needs no staging; everything else does.
    std::vector<bool> staged(p, false);
    staged[static_cast<std::size_t>(comm.root())] = true;
    staged_.push_back(std::move(staged));
  }
  alive_.assign(p, true);
}

Master::Master(vmpi::Comm& comm, std::vector<Chunk> chunks,
               PartitionPolicy policy, double memory_fraction,
               std::size_t cols, std::size_t bytes_per_pixel,
               std::size_t replication, bool charge_staging)
    : comm_(&comm),
      policy_(policy),
      memory_fraction_(memory_fraction),
      cols_(cols),
      bytes_per_pixel_(bytes_per_pixel),
      replication_(replication),
      charge_staging_(charge_staging),
      chunks_(std::move(chunks)) {
  HPRS_REQUIRE(comm.is_root(),
               "ft::Master must be constructed on the root rank");
  HPRS_REQUIRE(!chunks_.empty(), "resume requires at least one frozen chunk");
  const auto p = static_cast<std::size_t>(comm.size());
  const auto root = static_cast<std::size_t>(comm.root());
  const std::size_t n = chunks_.size();
  alive_.assign(p, true);
  staged_.reserve(n);
  for (std::size_t c = 0; c < n; ++c) {
    std::vector<bool> staged(p, false);
    staged[root] = true;
    staged_.push_back(std::move(staged));
  }
  assignment_.assign(n, -1);
  if (n == p) {
    // Same width as the original gang: the identity assignment of the
    // primary constructor.
    for (std::size_t c = 0; c < n; ++c) {
      assignment_[c] = static_cast<int>(c);
    }
    return;
  }
  // Elastic resize: spread the frozen chunks over the new width with the
  // recovery path's placement rule (place), in ascending chunk-id order so
  // the plan is a pure function of (chunks, platform, policy).
  std::vector<double> load(p, 0.0);
  std::vector<double> held(p, 0.0);
  for (std::size_t c = 0; c < n; ++c) {
    const int best = place(chunks_[c], load, held);
    HPRS_REQUIRE(best >= 0,
                 "elastic restart failed: no rank of the " +
                     std::to_string(p) + "-wide gang has memory for chunk " +
                     std::to_string(chunks_[c].id));
    assignment_[c] = best;
  }
}

int Master::place(const Chunk& chunk, std::vector<double>& load,
                  std::vector<double>& held) const {
  const simnet::Platform& platform = comm_->platform();
  const double rows = static_cast<double>(chunk.part.owned_rows());
  const double bytes =
      static_cast<double>(chunk.part.halo_rows() * cols_ * bytes_per_pixel_);
  int best = -1;
  double best_finish = std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < load.size(); ++r) {
    if (!alive_[r]) continue;
    const double budget =
        memory_fraction_ *
        static_cast<double>(platform.processor(r).memory_mb) * 1024.0 * 1024.0;
    if (held[r] + bytes > budget) continue;
    // The WEA over the live ranks: heterogeneous fractions follow compute
    // speed (alpha ~ 1/w, the paper's formula -- the staging term is sunk
    // for already-held chunks), homogeneous stays uniform.
    const double weight = policy_ == PartitionPolicy::kHeterogeneous
                              ? 1.0 / platform.cycle_time(r)
                              : 1.0;
    const double finish = (load[r] + rows) / weight;
    if (finish < best_finish) {
      best_finish = finish;
      best = static_cast<int>(r);
    }
  }
  if (best >= 0) {
    load[static_cast<std::size_t>(best)] += rows;
    held[static_cast<std::size_t>(best)] += bytes;
  }
  return best;
}

std::size_t Master::chunk_block_bytes(const Chunk& chunk) const {
  if (!charge_staging_) return 0;
  return chunk.part.halo_rows() * cols_ * bytes_per_pixel_ * replication_;
}

std::vector<std::any> Master::phase(int phase_id, const Handler& handler,
                                    std::shared_ptr<const std::any> payload,
                                    std::size_t payload_bytes) {
  vmpi::Comm& comm = *comm_;
  const int p = comm.size();
  const int root = comm.root();
  const std::size_t n = chunks_.size();
  std::vector<std::any> results(n);
  std::vector<bool> have(n, false);
  bool recovery = false;

  while (true) {
    // This round's work lists under the current assignment.  Round 0
    // commands every live worker (even with no chunks: the lockstep reply
    // keeps it available as an adoption target); recovery rounds only
    // contact the adopters of orphaned chunks.
    std::vector<std::vector<Chunk>> todo(static_cast<std::size_t>(p));
    for (std::size_t c = 0; c < n; ++c) {
      if (!have[c]) {
        todo[static_cast<std::size_t>(assignment_[c])].push_back(chunks_[c]);
      }
    }

    std::vector<int> commanded;
    for (int r = 0; r < p; ++r) {
      const auto ru = static_cast<std::size_t>(r);
      if (r == root || !alive_[ru]) continue;
      if (recovery && todo[ru].empty()) continue;
      std::size_t bytes = payload_bytes + kChunkDescriptorBytes;
      for (const Chunk& chunk : todo[ru]) {
        bytes += kChunkDescriptorBytes;
        if (!staged_[static_cast<std::size_t>(chunk.id)][ru]) {
          bytes += chunk_block_bytes(chunk);
        }
      }
      const double t0 = comm.now();
      if (!comm.try_send(r, Command{phase_id, recovery, payload, todo[ru]},
                         bytes, kCommandTag)) {
        // Death detected while posting; the detection wait was charged by
        // the engine.  The chunks stay missing and are adopted below.
        alive_[ru] = false;
        note_worker_lost();
        continue;
      }
      if (recovery) {
        // Time spent re-shipping lost work (the re-staging transfer) is
        // redistribution overhead; failed posts above were detection.
        comm.note_redistribution(comm.now() - t0);
      }
      for (const Chunk& chunk : todo[ru]) {
        staged_[static_cast<std::size_t>(chunk.id)][ru] = true;
      }
      commanded.push_back(r);
    }

    // The master's own share, in chunk order.
    {
      std::optional<vmpi::Comm::RecoveryScope> scope;
      if (recovery) scope.emplace(comm);
      for (const Chunk& chunk : todo[static_cast<std::size_t>(root)]) {
        results[static_cast<std::size_t>(chunk.id)] =
            std::move(handler(comm, chunk, payload ? payload.get() : nullptr)
                          .value);
        have[static_cast<std::size_t>(chunk.id)] = true;
      }
    }

    // Collect, ascending rank order.  A worker that died after taking the
    // command surfaces here; its chunks stay missing.
    for (const int r : commanded) {
      auto res = comm.try_recv<PhaseResult>(r, kResultTag);
      if (!res.has_value()) {
        alive_[static_cast<std::size_t>(r)] = false;
        note_worker_lost();
        continue;
      }
      for (auto& cr : res->results) {
        results[static_cast<std::size_t>(cr.chunk)] = std::move(cr.value);
        have[static_cast<std::size_t>(cr.chunk)] = true;
      }
    }

    if (std::all_of(have.begin(), have.end(), [](bool b) { return b; })) {
      return results;
    }
    reassign_lost(have);
    recovery = true;
  }
}

void Master::reassign_lost(const std::vector<bool>& have) {
  vmpi::Comm& comm = *comm_;
  const std::size_t p = static_cast<std::size_t>(comm.size());
  const double t0 = comm.now();

  // Survivor state: assigned rows (load) and held partition bytes (memory).
  std::vector<double> load(p, 0.0);
  std::vector<double> held(p, 0.0);
  for (std::size_t c = 0; c < chunks_.size(); ++c) {
    const auto r = static_cast<std::size_t>(assignment_[c]);
    if (!alive_[r]) continue;
    load[r] += static_cast<double>(chunks_[c].part.owned_rows());
    held[r] += static_cast<double>(chunks_[c].part.halo_rows() * cols_ *
                                   bytes_per_pixel_);
  }
  const auto survivors = static_cast<std::size_t>(
      std::count(alive_.begin(), alive_.end(), true));

  for (std::size_t c = 0; c < chunks_.size(); ++c) {
    if (have[c] || alive_[static_cast<std::size_t>(assignment_[c])]) continue;
    const int best = place(chunks_[c], load, held);
    HPRS_REQUIRE(best >= 0,
                 "fault recovery failed: no surviving node has memory for "
                 "the partition of crashed rank " +
                     std::to_string(assignment_[c]) + " (" +
                     std::to_string(survivors) + " survivors)");
    assignment_[c] = best;
    obs::Metrics::instance().add("ft.chunks_reassigned", 1, obs::Domain::kStable,
                                 best);
  }
  obs::Metrics::instance().add("ft.recovery_rounds", 1);

  // The replanning is a handful of arithmetic per survivor, performed by
  // the master alone -- the same charge distribute_partitions makes for
  // the initial WEA.
  comm.compute(64ULL * survivors, vmpi::Phase::kSequential);
  comm.note_redistribution(comm.now() - t0);
}

void Master::finish() {
  if (finished_) return;
  finished_ = true;
  vmpi::Comm& comm = *comm_;
  for (int r = 0; r < comm.size(); ++r) {
    const auto ru = static_cast<std::size_t>(r);
    if (r == comm.root() || !alive_[ru]) continue;
    if (!comm.try_send(r, Command{}, kChunkDescriptorBytes, kCommandTag)) {
      alive_[ru] = false;
      note_worker_lost();
    }
  }
}

int Master::live_workers() const {
  int n = 0;
  for (std::size_t r = 0; r < alive_.size(); ++r) {
    if (alive_[r] && static_cast<int>(r) != comm_->root()) ++n;
  }
  return n;
}

namespace {

/// The collective SPMD driver: each rank owns exactly its own WEA
/// partition (chunk id == rank), and a phase is broadcast payload ->
/// handler on the own chunk -> gather to the root.
class CollectiveDriver final : public PhaseDriver {
 public:
  CollectiveDriver(vmpi::Comm& comm, const hsi::HsiCube& cube,
                   const Program& prog)
      : comm_(&comm) {
    WorkloadModel model = prog.model;
    model.tile_stream = prog.tile_stream;
    const PartitionView view = detail::distribute_partitions(
        comm, cube, model, prog.policy, prog.memory_fraction, prog.overlap,
        prog.replication, /*defer_staging=*/prog.tile_stream);
    // Tile plan over the owned rows; with streaming on, every tile's copy
    // is enqueued here and the sweeps overlap the remaining transfers.
    tiles_ = detail::begin_tile_stream(comm, view, prog.tile_rows,
                                       prog.tile_stream, prog.replication);
    chunk_ = Chunk{comm.rank(), view.part, &tiles_};
  }

  [[nodiscard]] std::vector<std::any> phase(
      int /*phase_id*/, const Handler& handler,
      std::shared_ptr<const std::any> payload,
      std::size_t payload_bytes) override {
    vmpi::Comm& comm = *comm_;
    // Shared broadcast of the payload handle: every rank reads the root's
    // one immutable copy.
    std::shared_ptr<const std::shared_ptr<const std::any>> shared;
    if (payload) {
      shared = comm.bcast_shared(comm.root(), std::move(payload),
                                 payload_bytes);
    }
    ChunkOutcome mine =
        handler(comm, chunk_, shared ? shared->get() : nullptr);
    const std::size_t bytes = mine.bytes;
    std::vector<ChunkOutcome> all =
        comm.gather(comm.root(), std::move(mine), bytes);
    std::vector<std::any> results;
    results.reserve(all.size());
    for (auto& oc : all) results.push_back(std::move(oc.value));
    return results;
  }

  void release(std::shared_ptr<const std::any> payload,
               std::size_t payload_bytes) override {
    (void)comm_->bcast(comm_->root(), std::move(payload), payload_bytes);
  }

  void finish() override {}

 private:
  vmpi::Comm* comm_;
  detail::TileStream tiles_;
  Chunk chunk_;
};

}  // namespace

void run_collective(vmpi::Comm& comm, const hsi::HsiCube& cube,
                    const Program& prog) {
  CollectiveDriver driver(comm, cube, prog);
  prog.master(comm, driver, prog.handlers);
}

void run_program(vmpi::Comm& comm, const hsi::HsiCube& cube,
                 const Program& prog) {
  if (!comm.is_root()) {
    // The root is immortal (require_immortal_root), so this only returns
    // on the exit command.
    (void)resilient_worker_loop(comm, prog.handlers);
    return;
  }
  const PartitionResult partition =
      wea_partition(comm.platform(), cube.rows(), cube.cols(), prog.model,
                    prog.policy, prog.memory_fraction, prog.overlap,
                    comm.root());
  comm.compute(64ULL * static_cast<std::uint64_t>(comm.size()),
               vmpi::Phase::kSequential);
  Master master(comm, partition.parts, prog.policy, prog.memory_fraction,
                cube.cols(), cube.bytes_per_pixel(), prog.replication,
                prog.model.scatter_input);
  prog.master(comm, master, prog.handlers);
  master.finish();
}

vmpi::RunReport run_on_engine(const simnet::Platform& platform,
                              const hsi::HsiCube& cube, const Program& prog,
                              bool fault_tolerant,
                              const vmpi::Options& options) {
  vmpi::Engine engine(platform, options);
  if (fault_tolerant) require_immortal_root(options);
  return engine.run([&](vmpi::Comm& comm) {
    if (fault_tolerant) {
      run_program(comm, cube, prog);
    } else {
      run_collective(comm, cube, prog);
    }
  });
}

void require_immortal_root(const vmpi::Options& options) {
  for (const auto& crash : options.fault_plan.crashes) {
    HPRS_REQUIRE(crash.rank != options.root,
                 "fault-tolerant execution requires an immortal root: the "
                 "fault plan crashes rank " +
                     std::to_string(crash.rank) +
                     ", which is the root; pick a different root or crash "
                     "a worker instead");
  }
}

}  // namespace hprs::core::ft
