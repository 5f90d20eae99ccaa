#include "core/ft.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "core/spmd_common.hpp"
#include "obs/metrics.hpp"

namespace hprs::core::ft {

/// One rank's share of a (re-)distribution: its chunks (ascending id), the
/// resume depth, or the root's error in their place.
struct CollectiveDriver::Deal {
  std::vector<Chunk> chunks;
  int resume_depth = 0;
  std::string error;
};

CollectiveDriver::CollectiveDriver(vmpi::Comm& comm, const hsi::HsiCube& cube,
                                   const Program& prog,
                                   std::vector<Chunk> frozen, int resume_depth)
    : comm_(&comm), cube_(&cube), prog_(&prog) {
  std::vector<Deal> deals;
  if (comm.is_root()) {
    const auto p = static_cast<std::size_t>(comm.size());
    deals.resize(p);
    // An error here (the WEA cannot fit the scene, a resumed chunk fits
    // nowhere) is shipped in every deal, so the whole gang throws it.
    std::string error;
    try {
      freeze(std::move(frozen));
      for (std::size_t c = 0; c < chunks_.size(); ++c) {
        deals[static_cast<std::size_t>(owner_[c])].chunks.push_back(
            chunks_[c]);
      }
    } catch (const Error& e) {
      error = e.what();
    }
    for (Deal& d : deals) {
      d.resume_depth = resume_depth;
      d.error = error;
    }
  }
  deal(std::move(deals), /*recovery=*/false);
  recover();
}

CollectiveDriver::~CollectiveDriver() = default;

void CollectiveDriver::freeze(std::vector<Chunk> frozen) {
  vmpi::Comm& comm = *comm_;
  const Program& prog = *prog_;
  const auto p = static_cast<std::size_t>(comm.size());
  if (frozen.empty()) {
    const PartitionResult partition = wea_partition(
        comm.platform(), cube_->rows(), cube_->cols(), prog.model, prog.policy,
        prog.memory_fraction, prog.overlap, comm.root());
    // The WEA itself is a handful of arithmetic per processor, performed by
    // the root before any parallel work exists.
    comm.compute(64ULL * p, vmpi::Phase::kSequential);
    for (std::size_t i = 0; i < p; ++i) {
      chunks_.push_back(Chunk{static_cast<int>(i), partition.parts[i]});
      owner_.push_back(static_cast<int>(i));
    }
    return;
  }
  chunks_ = std::move(frozen);
  if (chunks_.size() == p) {
    // Resume on a gang of the original width: the identity assignment.
    for (std::size_t i = 0; i < p; ++i) owner_.push_back(static_cast<int>(i));
    return;
  }
  // Elastic resize: spread the frozen chunks over the new width in
  // ascending chunk-id order, so the plan is a pure function of (chunks,
  // platform, policy).
  std::vector<double> load(p, 0.0);
  std::vector<double> held(p, 0.0);
  for (const Chunk& chunk : chunks_) {
    owner_.push_back(place(chunk, load, held));
    if (owner_.back() < 0) {
      throw Error("elastic restart failed: no rank of the " +
                  std::to_string(p) + "-wide gang has memory for chunk " +
                  std::to_string(chunk.id));
    }
  }
}

void CollectiveDriver::deal(std::vector<Deal> deals, bool recovery) {
  vmpi::Comm& comm = *comm_;
  const Program& prog = *prog_;
  const auto chunk_bytes = [&](const Chunk& chunk) {
    // Pre-staged data ships a descriptor; scatter_input ships the block.
    return prog.model.scatter_input
               ? PartitionView{cube_, chunk.part}.wire_bytes() *
                     prog.replication
               : kChunkDescriptorBytes;
  };
  std::vector<std::size_t> bytes;
  for (const Deal& d : deals) {
    std::size_t b = d.chunks.empty() ? kChunkDescriptorBytes : 0;
    for (const Chunk& chunk : d.chunks) b += chunk_bytes(chunk);
    bytes.push_back(b);
  }
  Deal mine = comm.scatter(comm.root(), std::move(deals), bytes);
  if (!mine.error.empty()) throw Error(mine.error);
  if (!recovery) resume_depth_ = mine.resume_depth;
  for (Chunk& chunk : mine.chunks) {
    // Accelerated ranks copy the block across the host<->device path
    // before any kernel can touch it -- monolithically, or per tile in
    // streaming mode, overlapping whatever precedes the device sweeps.  A
    // no-op on plain CPU ranks.
    const PartitionView view{cube_, chunk.part};
    if (!prog.model.tile_stream) {
      comm.stage_to_device(view.wire_bytes() * prog.replication);
    }
    states_.push_back(std::make_unique<detail::ChunkState>(
        detail::begin_tile_stream(comm, view, prog.tile_rows,
                                  prog.model.tile_stream, prog.replication),
        detail::ProjectionCache(*cube_, chunk.part.row_begin,
                                chunk.part.row_end)));
    chunk.state = states_.back().get();
    (recovery ? adopted_ : owned_).push_back(chunk);
  }
}

int CollectiveDriver::place(const Chunk& chunk, std::vector<double>& load,
                            std::vector<double>& held) const {
  const simnet::Platform& platform = comm_->platform();
  const Program& prog = *prog_;
  const double rows = static_cast<double>(chunk.part.owned_rows());
  const double bytes = static_cast<double>(
      chunk.part.halo_rows() * cube_->cols() * cube_->bytes_per_pixel());
  int best = -1;
  double best_finish = std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < load.size(); ++r) {
    const double budget =
        prog.memory_fraction *
        static_cast<double>(platform.processor(r).memory_mb) * 1024.0 * 1024.0;
    if (held[r] + bytes > budget) continue;
    // The WEA over the live ranks: heterogeneous fractions follow compute
    // speed (alpha ~ 1/w, the paper's formula -- the staging term is sunk
    // for already-held chunks), homogeneous stays uniform.
    const double weight = prog.policy == PartitionPolicy::kHeterogeneous
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

void CollectiveDriver::recover() {
  vmpi::Comm& comm = *comm_;
  // Recovery decisions are pure functions of the virtual run (who died,
  // when, which chunks were theirs), so these counters are Domain::kStable
  // and golden-comparable.
  obs::Metrics& metrics = obs::Metrics::instance();
  while (!comm.failed().empty()) {
    const std::vector<int> dead = comm.failed();
    if (std::binary_search(dead.begin(), dead.end(), comm.root())) {
      throw RootLost("the root (world rank " +
                     std::to_string(comm.world_rank_of(comm.root())) +
                     ") crashed; the survivors cannot finish the program");
    }
    const double t0 = comm.now();
    std::vector<int> survivor_of(static_cast<std::size_t>(comm.size()));
    for (int r = 0, next = 0; r < comm.size(); ++r) {
      const bool gone = std::binary_search(dead.begin(), dead.end(), r);
      survivor_of[static_cast<std::size_t>(r)] = gone ? -1 : next++;
    }
    comm = comm.shrink();

    std::vector<Deal> deals;
    if (comm.is_root()) {
      const auto p = static_cast<std::size_t>(comm.size());
      deals.resize(p);
      // Survivor state: assigned rows (load) and held partition bytes.
      std::vector<double> load(p, 0.0);
      std::vector<double> held(p, 0.0);
      for (std::size_t c = 0; c < chunks_.size(); ++c) {
        int& owner = owner_[c];
        owner = survivor_of[static_cast<std::size_t>(owner)];
        if (owner < 0) continue;
        load[static_cast<std::size_t>(owner)] +=
            static_cast<double>(chunks_[c].part.owned_rows());
        held[static_cast<std::size_t>(owner)] += static_cast<double>(
            chunks_[c].part.halo_rows() * cube_->cols() *
            cube_->bytes_per_pixel());
      }
      std::string error;
      for (std::size_t c = 0; c < chunks_.size(); ++c) {
        if (owner_[c] >= 0) continue;
        owner_[c] = place(chunks_[c], load, held);
        if (owner_[c] < 0) {
          error = "fault recovery failed: no surviving node has memory for "
                  "chunk " +
                  std::to_string(c) + " (" + std::to_string(p) +
                  " survivors)";
          break;
        }
        deals[static_cast<std::size_t>(owner_[c])].chunks.push_back(
            chunks_[c]);
        metrics.add("ft.chunks_reassigned", 1, obs::Domain::kStable,
                    owner_[c]);
      }
      for (Deal& d : deals) d.error = error;
      metrics.add("ft.workers_lost", dead.size());
      metrics.add("ft.recovery_rounds", 1);
      // The replanning is a handful of arithmetic per survivor, performed
      // by the root alone -- the same charge the initial WEA makes.
      comm.compute(64ULL * p, vmpi::Phase::kSequential);
    }
    deal(std::move(deals), /*recovery=*/true);
    // The root's replanning and re-staging; the others' wait for it is
    // plain wait time, as at any collective.
    if (comm.is_root()) comm.note_redistribution(comm.now() - t0);
  }
}

std::shared_ptr<const std::any> CollectiveDriver::share(
    std::shared_ptr<const std::any> payload, std::size_t payload_bytes) {
  // Shared broadcast of the payload handle: every rank reads the root's
  // one immutable copy.
  const auto shared = comm_->bcast_shared(comm_->root(), std::move(payload),
                                          payload_bytes);
  recover();
  return *shared;
}

std::vector<std::any> CollectiveDriver::phase(
    const Handler& handler, std::shared_ptr<const std::any> payload,
    std::size_t payload_bytes) {
  std::shared_ptr<const std::any> shared;
  if (payload) shared = share(std::move(payload), payload_bytes);
  vmpi::Comm& comm = *comm_;
  std::vector<std::any> results(comm.is_root() ? chunks_.size() : 0);
  // Round 0 runs this rank's chunks; every later round only the chunks it
  // adopted from ranks the previous gather found dead.
  std::size_t fresh = 0;
  for (bool first = true;; first = false) {
    std::vector<std::pair<int, std::any>> mine;
    std::size_t bytes = 0;
    const auto run = [&](const Chunk& chunk) {
      ChunkOutcome oc = handler(comm, chunk, shared.get());
      bytes += oc.bytes;
      mine.emplace_back(chunk.id, std::move(oc.value));
    };
    if (first) {
      for (const Chunk& chunk : owned_) run(chunk);
    }
    if (fresh < adopted_.size()) {
      const vmpi::Comm::RecoveryScope scope(comm);
      for (; fresh < adopted_.size(); ++fresh) run(adopted_[fresh]);
    }
    auto all = comm.gather(comm.root(), std::move(mine), bytes);
    for (auto& list : all) {
      for (auto& [id, value] : list) {
        results[static_cast<std::size_t>(id)] = std::move(value);
      }
    }
    if (comm.failed().empty()) break;
    recover();
  }
  // Adopted chunks are this rank's own from the next phase on.
  owned_.insert(owned_.end(), adopted_.begin(), adopted_.end());
  std::sort(owned_.begin(), owned_.end(),
            [](const Chunk& a, const Chunk& b) { return a.id < b.id; });
  adopted_.clear();
  return results;
}

void CollectiveDriver::release(std::shared_ptr<const std::any> payload,
                               std::size_t payload_bytes) {
  (void)share(std::move(payload), payload_bytes);
}

void run_collective(vmpi::Comm& comm, const hsi::HsiCube& cube,
                    const Program& prog) {
  vmpi::Comm survivors = comm.tolerant();
  CollectiveDriver driver(survivors, cube, prog);
  prog.master(comm, driver, prog.handlers);
}

vmpi::RunReport run_on_engine(const simnet::Platform& platform,
                              const hsi::HsiCube& cube, const Program& prog,
                              const vmpi::Options& options) {
  require_recoverable(prog, options);
  vmpi::Engine engine(platform, options);
  return engine.run(
      [&](vmpi::Comm& comm) { run_collective(comm, cube, prog); });
}

void require_recoverable(const Program& prog, const vmpi::Options& options) {
  for (const auto& crash : options.fault_plan.crashes) {
    HPRS_REQUIRE(prog.unrecoverable.empty(),
                 prog.unrecoverable + "; the fault plan crashes rank " +
                     std::to_string(crash.rank));
    HPRS_REQUIRE(crash.rank != options.root,
                 "the fault plan crashes rank " + std::to_string(crash.rank) +
                     ", which is the root: recovery needs an immortal root; "
                     "pick a different root or crash a worker instead");
  }
}

}  // namespace hprs::core::ft
