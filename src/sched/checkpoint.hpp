// Gang checkpoint store for the cluster resilience layer.
//
// A checkpoint is algorithm-agnostic progress of one job's program
// (core/ft.hpp): the frozen WEA chunk list plus the per-phase result log
// the ResilientDriver has accumulated (sched/resilience.hpp).  Because
// chunks are atomic and the root folds results in chunk-id order,
// replaying the log on a restarted gang of *any* width reproduces the
// original run's outputs bit for bit.
//
// The store itself is host-side state shared by every rank thread of the
// scheduler engine: only a job's gang leader writes its entry, and the
// next attempt's leader reads it strictly after the previous attempt
// retired (the dispatcher orders attempts in virtual time, and the
// engine's message matching gives the host-side happens-before), so the
// mutex only guards the map structure.
//
// Writes are two-phase to model torn checkpoints deterministically:
// begin() stages the snapshot, the writer charges the (virtual) write
// cost, and commit() promotes it.  A rank crash whose virtual time lands
// inside the write window kills the leader between begin and commit, so
// the staged snapshot is discarded and the previous *committed* one
// survives -- exactly the atomic-rename semantics of an on-disk
// checkpoint, with the torn window decided by virtual time alone.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

#include "core/ft.hpp"

namespace hprs::sched {

/// One committed snapshot of a job's progress.
struct Checkpoint {
  std::uint64_t job_id = 0;
  /// Attempt that wrote the snapshot.
  int attempt = 1;
  /// Number of completed phase() calls in `phase_log`.
  int seq = 0;
  /// Virtual time the writing leader began the commit.
  double saved_at_s = 0.0;
  /// The frozen chunk list (immutable across attempts and resizes).
  std::vector<core::ft::Chunk> chunks;
  /// Per-phase results in issue order, each indexed by chunk id.
  std::vector<std::vector<std::any>> phase_log;
};

class CheckpointStore {
 public:
  /// Stages `snapshot` for its job id (replacing any staged predecessor).
  /// Not yet visible to load().
  void begin(Checkpoint snapshot);

  /// Promotes the staged snapshot to committed.  No-op when nothing is
  /// staged (the writer died inside the window and another path cleaned
  /// up -- cannot happen under the current protocol, but harmless).
  void commit(std::uint64_t job_id);

  /// The last *committed* snapshot, or nullopt.
  [[nodiscard]] std::optional<Checkpoint> load(std::uint64_t job_id) const;

  /// Drops both staged and committed snapshots of the job.
  void erase(std::uint64_t job_id);

  /// Commits ever performed for the job (survives erase): the dispatcher's
  /// Degraded-vs-Failed verdict for jobs that exhaust their retries.
  [[nodiscard]] std::size_t committed_count(std::uint64_t job_id) const;

 private:
  mutable std::mutex mu_;
  std::map<std::uint64_t, Checkpoint> staged_;
  std::map<std::uint64_t, Checkpoint> committed_;
  std::map<std::uint64_t, std::size_t> commits_;
};

}  // namespace hprs::sched
