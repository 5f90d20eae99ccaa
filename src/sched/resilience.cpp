#include "sched/resilience.hpp"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "core/ft_programs.hpp"
#include "core/partition.hpp"

namespace hprs::sched {
namespace {

/// Virtual flop charge per half of a checkpoint write (the window between
/// the two halves is where a crash tears the staged snapshot).  The state-
/// dependent term grows with the snapshot: serializing more logged phases
/// over more chunks costs more.
constexpr std::uint64_t kCheckpointHalfFlops = 1'000'000;

[[nodiscard]] double u01(SplitMix64& rng) {
  return static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
}

}  // namespace

ResilientDriver::ResilientDriver(vmpi::Comm& comm, core::ft::Master& master,
                                 CheckpointStore* store, std::uint64_t job_id,
                                 int attempt, const ResilienceConfig& config,
                                 const Checkpoint* resumed)
    : comm_(&comm),
      master_(&master),
      store_(store),
      job_id_(job_id),
      attempt_(attempt),
      config_(config),
      attempt_start_s_(comm.now()),
      jitter_(config.checkpoint_seed ^ job_id ^
              static_cast<std::uint64_t>(attempt)) {
  if (resumed != nullptr) {
    log_ = resumed->phase_log;
    resumed_seq_ = resumed->seq;
  }
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
  snap.chunks = master_->chunks();
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
  ++checkpoints_;
  checkpoint_at_s_.push_back(comm_->now());
  checkpoint_cost_s_ += comm_->now() - t0;
  schedule_next_checkpoint();
}

std::vector<std::any> ResilientDriver::phase(
    int phase_id, const core::ft::Handler& handler,
    std::shared_ptr<const std::any> payload, std::size_t payload_bytes) {
  if (next_replay_ < log_.size()) {
    // Replaying a phase the checkpoint already holds: no commands, no
    // compute -- the results were paid for by the attempt that logged them.
    return log_[next_replay_++];
  }
  std::vector<std::any> out =
      master_->phase(phase_id, handler, std::move(payload), payload_bytes);
  log_.push_back(out);
  next_replay_ = log_.size();
  if (store_ != nullptr && next_checkpoint_s_ >= 0.0 &&
      comm_->now() >= next_checkpoint_s_) {
    write_checkpoint();
  }
  const double deadline = config_.retry.attempt_deadline_s;
  if (deadline > 0.0 && comm_->now() - attempt_start_s_ >= deadline) {
    // Preempt at the phase boundary: persist everything done so far, then
    // unwind to the leader, which releases the gang and reports back.
    if (store_ != nullptr) write_checkpoint();
    throw PreemptSignal{};
  }
  return out;
}

void ResilientDriver::finish() { master_->finish(); }

void ProgramBundle::harvest(JobOutput& out) {
  switch (algorithm) {
    case JobAlgorithm::kAtdca:
    case JobAlgorithm::kUfcls:
      out.targets = std::move(target->targets);
      break;
    case JobAlgorithm::kPct:
    case JobAlgorithm::kMorph:
      out.labels = std::move(classification->labels);
      out.label_count = classification->label_count;
      break;
    case JobAlgorithm::kPpi:
      out.targets = std::move(ppi->targets);
      out.scores = std::move(ppi->scores);
      break;
  }
}

ProgramBundle make_job_program(const JobSpec& spec, const hsi::HsiCube& scene) {
  ProgramBundle bundle;
  bundle.algorithm = spec.algorithm;
  switch (spec.algorithm) {
    case JobAlgorithm::kAtdca:
      bundle.target = std::make_shared<core::TargetDetectionResult>();
      bundle.program = core::atdca_ft_program(
          scene, job_config<core::AtdcaConfig>(spec), *bundle.target);
      break;
    case JobAlgorithm::kUfcls:
      bundle.target = std::make_shared<core::TargetDetectionResult>();
      bundle.program = core::ufcls_ft_program(
          scene, job_config<core::UfclsConfig>(spec), *bundle.target);
      break;
    case JobAlgorithm::kPct:
      bundle.classification = std::make_shared<core::ClassificationResult>();
      bundle.program = core::pct_ft_program(
          scene, job_config<core::PctConfig>(spec), *bundle.classification);
      break;
    case JobAlgorithm::kMorph:
      // JobSpec has no overlap_borders knob, so the config keeps its
      // default overlap borders, which the master/worker protocol needs.
      bundle.classification = std::make_shared<core::ClassificationResult>();
      bundle.program = core::morph_ft_program(
          scene, job_config<core::MorphConfig>(spec), *bundle.classification);
      break;
    case JobAlgorithm::kPpi:
      bundle.ppi = std::make_shared<core::PpiResult>();
      bundle.program = core::ppi_ft_program(
          scene, job_config<core::PpiConfig>(spec), *bundle.ppi);
      break;
  }
  return bundle;
}

void release_gang(vmpi::Comm& sub) {
  for (int r = 0; r < sub.size(); ++r) {
    if (r == sub.root()) continue;
    (void)sub.try_send(r, core::ft::Command{},
                       core::ft::kChunkDescriptorBytes, core::ft::kCommandTag);
  }
}

AttemptOutcome run_resilient_leader(vmpi::Comm& sub, const JobSpec& spec,
                                    const hsi::HsiCube& scene, int attempt,
                                    const ResilienceConfig& config,
                                    CheckpointStore* store, JobOutput& out) {
  AttemptOutcome outcome;
  ProgramBundle bundle = make_job_program(spec, scene);
  const core::ft::Program& prog = bundle.program;

  std::optional<Checkpoint> resumed;
  if (store != nullptr && config.resume_from_checkpoint && attempt > 1) {
    resumed = store->load(spec.id);
  }

  std::optional<core::ft::Master> master;
  std::optional<ResilientDriver> driver;
  try {
    if (resumed.has_value()) {
      // Elastic restart: adopt the frozen chunk list on whatever width this
      // gang has; Master's resume constructor spreads the chunks.
      master.emplace(sub, resumed->chunks, prog.policy, prog.memory_fraction,
                     scene.cols(), scene.bytes_per_pixel(), prog.replication,
                     prog.model.scatter_input);
    } else {
      const core::PartitionResult partition = core::wea_partition(
          sub.platform(), scene.rows(), scene.cols(), prog.model, prog.policy,
          prog.memory_fraction, prog.overlap, sub.root());
      sub.compute(64ULL * static_cast<std::uint64_t>(sub.size()),
                  vmpi::Phase::kSequential);
      master.emplace(sub, partition.parts, prog.policy, prog.memory_fraction,
                     scene.cols(), scene.bytes_per_pixel(), prog.replication,
                     prog.model.scatter_input);
    }
    driver.emplace(sub, *master, store, spec.id, attempt, config,
                   resumed.has_value() ? &*resumed : nullptr);
    prog.master(sub, *driver, prog.handlers);
    driver->finish();
    bundle.harvest(out);
    outcome.status = 0;
  } catch (const PreemptSignal&) {
    // Deadline overrun: progress is checkpointed; release the survivors so
    // they rejoin the pool while the job waits in the retry queue.  Only
    // these two handlers exist on purpose: the engine's crash signal must
    // keep propagating, so no catch-all.
    outcome.status = 1;
    master->finish();
  } catch (const Error& e) {
    outcome.status = 2;
    outcome.error = e.what();
    if (master.has_value()) {
      master->finish();
    } else {
      // The WEA or the resume construction failed before any Master owned
      // the workers; unblock them by hand.
      release_gang(sub);
    }
  }
  if (driver.has_value()) {
    outcome.checkpoints = driver->checkpoints();
    outcome.resumed_seq = driver->resumed_seq();
    outcome.checkpoint_s = driver->checkpoint_cost_s();
    outcome.checkpoint_at_s = driver->checkpoint_at_s();
  }
  return outcome;
}

bool run_resilient_worker(vmpi::Comm& sub, const JobSpec& spec,
                          const hsi::HsiCube& scene) {
  const ProgramBundle bundle = make_job_program(spec, scene);
  return core::ft::resilient_worker_loop(sub, bundle.program.handlers);
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
