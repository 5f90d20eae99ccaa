#include "sched/resilience.hpp"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "core/runner.hpp"

namespace hprs::sched {
namespace {

/// Virtual flop charge per half of a checkpoint write (the window between
/// the two halves is where a crash tears the staged snapshot).  The state-
/// dependent term grows with the snapshot: serializing more logged phases
/// over more chunks costs more.
constexpr std::uint64_t kCheckpointHalfFlops = 1'000'000;

/// Seed of the checkpoint-interval jitter (see ResilienceConfig).
constexpr std::uint64_t kCheckpointSeed = 0xc0ffee11ULL;

[[nodiscard]] double u01(SplitMix64& rng) {
  return static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
}

}  // namespace

ResilientDriver::ResilientDriver(vmpi::Comm& comm,
                                 core::ft::CollectiveDriver& inner,
                                 CheckpointStore* store, std::uint64_t job_id,
                                 int attempt, const ResilienceConfig& config,
                                 const Checkpoint* resumed)
    : comm_(&comm),
      inner_(&inner),
      store_(comm.is_root() ? store : nullptr),
      job_id_(job_id),
      attempt_(attempt),
      config_(config),
      attempt_start_s_(comm.now()),
      jitter_(kCheckpointSeed ^ job_id ^
              static_cast<std::uint64_t>(attempt)),
      resumed_seq_(inner.resume_depth()) {
  if (resumed != nullptr) log_ = resumed->phase_log;
  schedule_next_checkpoint();
  // Baseline snapshot on a fresh start: even a crash inside the first
  // phase restarts with the frozen chunk list instead of a new WEA.
  if (store_ != nullptr && resumed == nullptr) write_checkpoint();
}

void ResilientDriver::schedule_next_checkpoint() {
  if (config_.checkpoint_interval_s <= 0.0) {
    next_checkpoint_s_ = -1.0;
    return;
  }
  next_checkpoint_s_ =
      comm_->now() + config_.checkpoint_interval_s * (0.75 + 0.5 * u01(jitter_));
}

void ResilientDriver::write_checkpoint() {
  const double t0 = comm_->now();
  Checkpoint snap;
  snap.job_id = job_id_;
  snap.attempt = attempt_;
  snap.seq = static_cast<int>(log_.size());
  snap.saved_at_s = t0;
  snap.chunks = inner_->chunks();
  snap.phase_log = log_;
  const std::uint64_t half =
      kCheckpointHalfFlops +
      64ULL * snap.chunks.size() * static_cast<std::uint64_t>(log_.size());
  store_->begin(std::move(snap));
  // Two sequential charges model the write: a crash whose virtual time
  // lands after the first half kills the leader at the entry of the second
  // (fail-stop fires at engine-op entry), so the staged snapshot never
  // commits and load() keeps serving the previous one -- atomic-rename
  // semantics with the torn window decided purely by virtual time.
  comm_->compute(half, vmpi::Phase::kSequential);
  comm_->compute(half, vmpi::Phase::kSequential);
  store_->commit(job_id_);
  checkpoint_at_s_.push_back(comm_->now());
  checkpoint_cost_s_ += comm_->now() - t0;
  schedule_next_checkpoint();
}

std::vector<std::any> ResilientDriver::phase(
    const core::ft::Handler& handler, std::shared_ptr<const std::any> payload,
    std::size_t payload_bytes) {
  if (replayed_ < resumed_seq_) {
    // Replaying a phase the checkpoint already holds: no collectives, no
    // compute -- the results were paid for by the attempt that logged them.
    ++replayed_;
    return comm_->is_root() ? log_[static_cast<std::size_t>(replayed_ - 1)]
                            : std::vector<std::any>{};
  }
  std::vector<std::any> out =
      inner_->phase(handler, std::move(payload), payload_bytes);
  if (comm_->is_root()) {
    log_.push_back(out);
    if (store_ != nullptr && next_checkpoint_s_ >= 0.0 &&
        comm_->now() >= next_checkpoint_s_) {
      write_checkpoint();
    }
  }
  const double deadline = config_.retry.attempt_deadline_s;
  if (deadline > 0.0) {
    // Preempt at the phase boundary on the leader's clock; the decision is
    // broadcast so the whole gang unwinds together.  The leader persists
    // everything done so far first.
    const bool overrun =
        comm_->is_root() && comm_->now() - attempt_start_s_ >= deadline;
    const auto decision =
        inner_->share(std::make_shared<const std::any>(overrun), 1);
    if (std::any_cast<bool>(*decision)) {
      if (store_ != nullptr) write_checkpoint();
      throw PreemptSignal{};
    }
  }
  return out;
}

void ResilientDriver::release(std::shared_ptr<const std::any> payload,
                              std::size_t payload_bytes) {
  inner_->release(std::move(payload), payload_bytes);
}

AttemptOutcome run_attempt(vmpi::Comm& gang, const JobSpec& spec,
                           const hsi::HsiCube& scene, int attempt,
                           const ResilienceConfig& config,
                           CheckpointStore* store, JobOutput& out) {
  AttemptOutcome outcome;
  // The default execution choices keep MORPH's overlap borders, which
  // recovery needs.
  core::AlgorithmProgram built =
      core::make_program(core::RunnerConfig{spec}, scene);
  const core::ft::Program& prog = built.program;

  std::optional<Checkpoint> resumed;
  if (config.enabled && store != nullptr && config.resume_from_checkpoint &&
      attempt > 1 && gang.is_root()) {
    resumed = store->load(spec.id);
  }
  std::optional<core::ft::CollectiveDriver> inner;
  std::optional<ResilientDriver> driver;
  try {
    // Elastic restart: the leader deals the frozen chunk list over
    // whatever width this gang has.
    inner.emplace(gang, scene, prog,
                  resumed ? resumed->chunks : std::vector<core::ft::Chunk>{},
                  resumed ? resumed->seq : 0);
    core::ft::PhaseDriver* phases = &*inner;
    if (config.enabled) {
      driver.emplace(gang, *inner, store, spec.id, attempt, config,
                     resumed ? &*resumed : nullptr);
      phases = &*driver;
    }
    prog.master(gang, *phases, prog.handlers);
    if (gang.is_root()) out = built.harvest();
  } catch (const PreemptSignal&) {
    // Deadline overrun: progress is checkpointed; the gang rejoins the
    // pool while the job waits in the retry queue.  Only these handlers
    // exist on purpose: the engine's crash signal must keep propagating,
    // so no catch-all.
    outcome.status = 1;
  } catch (const core::ft::RootLost&) {
    throw;  // the gang runtime returns this member to the pool
  } catch (const Error& e) {
    outcome.status = 2;
    outcome.error = e.what();
  }
  if (driver.has_value()) {
    outcome.resumed_seq = driver->resumed_seq();
    outcome.checkpoint_s = driver->checkpoint_cost_s();
    outcome.checkpoint_at_s = driver->checkpoint_at_s();
  }
  return outcome;
}

void validate_cluster_fault_plan(const vmpi::Options& options,
                                 std::size_t platform_size) {
  const auto& crashes = options.fault_plan.crashes;
  for (std::size_t i = 0; i < crashes.size(); ++i) {
    const std::string key =
        "fault_plan.crashes[" + std::to_string(i) + "].rank";
    HPRS_REQUIRE(crashes[i].rank >= 0 &&
                     static_cast<std::size_t>(crashes[i].rank) < platform_size,
                 key + " = " + std::to_string(crashes[i].rank) +
                     " is out of range for a platform of " +
                     std::to_string(platform_size) + " ranks");
    HPRS_REQUIRE(crashes[i].rank != options.root,
                 key + " = " + std::to_string(crashes[i].rank) +
                     " targets the dispatcher (root) rank: the cluster "
                     "control plane must be immortal");
  }
}

}  // namespace hprs::sched
