// Recovery cost of the resilient scheduler (paper Sect. 9: fault tolerance
// on networks of workstations): what does a gang-leader crash cost with
// checkpoint resume versus a cold restart?
//
// One long ATDCA job runs on a six-rank gang of the fully heterogeneous
// NOW under four scenarios: fault-free with periodic gang checkpoints
// ("resume_clean"), the same run with the gang leader crashed at 80% of
// the job ("resume_crash"), and the pair again with the checkpoint store
// disabled ("cold_clean" / "cold_crash") so the retry recomputes from
// zero.  Each faulty scenario's outputs are compared bit for bit against
// an uninterrupted solo run of the job's fault-tolerant program on the
// gang whose WEA partition froze the chunk list -- the first attempt's
// gang when checkpoints carried the chunks forward, the final attempt's
// gang after a cold restart.
//
// Shape to hold: both faulty runs complete with bit-identical outputs,
// and checkpoint resume strictly beats cold restart -- on the faulty
// makespan outright, and on the recovery overhead (faulty minus clean
// makespan) even after paying for every checkpoint write.  All numbers
// are virtual time, so every cell is bit-identical across runs and
// executor modes; the JSON twin (--json BENCH_resilience.json) makes
// them machine-checkable.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/ft.hpp"
#include "sched/resilience.hpp"
#include "sched/scheduler.hpp"
#include "vmpi/comm.hpp"
#include "vmpi/engine.hpp"

namespace {

using namespace hprs;

/// The single long job of the bench: ATDCA with one phase boundary per
/// target, wide enough to be resized after a leader loss.
std::vector<sched::JobSpec> make_stream(const bench::BenchSetup& setup) {
  sched::JobSpec spec;
  spec.id = 1;
  spec.algorithm = core::Algorithm::kAtdca;
  spec.arrival_s = 0.0;
  spec.ranks = 6;
  spec.targets = std::min<std::size_t>(setup.config.targets, 18);
  spec.replication = setup.config.replication;
  return {spec};
}

/// The output oracle: the job's fault-tolerant program run solo and
/// uninterrupted on `members` (tests/sched_resilience_test.cpp uses the
/// same construction).
sched::JobOutput run_solo_ft(const simnet::Platform& platform,
                             const hsi::HsiCube& scene,
                             const sched::JobSpec& spec,
                             const std::vector<int>& members) {
  sched::JobOutput out;
  vmpi::Engine engine(platform, {});
  engine.run([&](vmpi::Comm& world) {
    if (std::find(members.begin(), members.end(), world.rank()) ==
        members.end()) {
      return;
    }
    vmpi::Comm sub = world.subset(members, spec.id);
    core::AlgorithmProgram built =
        core::make_program(core::RunnerConfig{spec}, scene);
    core::ft::run_program(sub, scene, built.program);
    if (sub.is_root()) out = built.harvest();
  });
  return out;
}

bool outputs_equal(const sched::JobOutput& a, const sched::JobOutput& b) {
  return a.targets == b.targets && a.scores == b.scores &&
         a.labels == b.labels && a.label_count == b.label_count;
}

/// Condenses one schedule into a bench record; `clean_makespan_s < 0`
/// marks a clean scenario (no overhead to report).
bench::ResilienceRecord condense(const std::string& scenario,
                                 const sched::ScheduleResult& result,
                                 double clean_makespan_s,
                                 bool outputs_match) {
  const sched::JobRecord& record = result.records.front();
  bench::ResilienceRecord rec;
  rec.scenario = scenario;
  rec.makespan_s = result.makespan_s;
  rec.recovery_overhead_s =
      clean_makespan_s >= 0.0 ? result.makespan_s - clean_makespan_s : 0.0;
  rec.attempts = record.attempts.size();
  for (const auto& attempt : record.attempts) {
    rec.checkpoints += attempt.checkpoints;
  }
  rec.resumed_seq =
      record.attempts.empty() ? 0 : record.attempts.back().resumed_seq;
  rec.outputs_match = outputs_match;
  return rec;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::take_json_flag(argc, argv);
  const auto setup = bench::make_setup(argc, argv);
  const simnet::Platform net = simnet::fully_heterogeneous();
  const std::vector<sched::JobSpec> stream = make_stream(setup);
  const hsi::HsiCube& scene = setup.scene.cube;

  // Calibrate the checkpoint cadence to roughly eight commits per run
  // (virtual time is deterministic, so the calibration run and the clean
  // run agree exactly), then derive the crash instant -- the gang leader
  // dies at 80% of the job -- from the clean run of each mode separately:
  // the cold mode pays no checkpoint charges, so its timeline differs.
  // The crash lands late on purpose: OSP phases get costlier as the
  // target set grows, and the resumed gang inherits a chunk partition
  // sized for the dead gang's speeds, so an early crash would leave the
  // replay with little to save while the cold restart re-balances.
  sched::SchedulerConfig resume_cfg;
  resume_cfg.resilience.enabled = true;
  const auto calib = sched::run_schedule(net, scene, stream, resume_cfg);
  if (calib.completed() != 1) {
    std::fprintf(stderr, "bench_sched_resilience: calibration run failed\n");
    return 1;
  }
  resume_cfg.resilience.checkpoint_interval_s =
      calib.records.front().makespan_s() / 8.0;

  sched::SchedulerConfig cold_cfg = resume_cfg;
  cold_cfg.resilience.resume_from_checkpoint = false;

  std::vector<bench::ResilienceRecord> records;
  TextTable table({"Scenario", "Makespan (s)", "Overhead (s)", "Attempts",
                   "Checkpoints", "Resumed", "Outputs"});
  const auto add = [&](const bench::ResilienceRecord& rec) {
    records.push_back(rec);
    table.add_row({rec.scenario, TextTable::num(rec.makespan_s, 4),
                   TextTable::num(rec.recovery_overhead_s, 4),
                   std::to_string(rec.attempts),
                   std::to_string(rec.checkpoints),
                   std::to_string(rec.resumed_seq),
                   rec.outputs_match ? "bit-identical" : "MISMATCH"});
  };

  int status = 0;
  double clean_makespan[2] = {0.0, 0.0};
  double crash_makespan[2] = {0.0, 0.0};
  const sched::SchedulerConfig* configs[2] = {&resume_cfg, &cold_cfg};
  const char* mode_name[2] = {"resume", "cold"};
  for (int m = 0; m < 2; ++m) {
    const auto clean = sched::run_schedule(net, scene, stream, *configs[m]);
    const sched::JobRecord& job = clean.records.front();
    if (!job.completed()) {
      std::fprintf(stderr, "bench_sched_resilience: %s_clean failed: %s\n",
                   mode_name[m], job.error.c_str());
      return 1;
    }
    const sched::JobOutput clean_solo =
        run_solo_ft(net, scene, stream.front(), job.members);
    add(condense(std::string(mode_name[m]) + "_clean", clean, -1.0,
                 outputs_equal(clean.outputs.front(), clean_solo)));
    clean_makespan[m] = clean.makespan_s;

    vmpi::Options faulty;
    faulty.fault_plan.crashes.push_back(
        {job.members.front(), job.dispatch_s + 0.8 * job.makespan_s()});
    const auto crashed =
        sched::run_schedule(net, scene, stream, *configs[m], faulty);
    const sched::JobRecord& rec = crashed.records.front();
    if (!rec.completed() || rec.attempts.size() < 2) {
      std::fprintf(stderr,
                   "bench_sched_resilience: %s_crash did not retry to "
                   "completion (%s)\n",
                   mode_name[m], rec.error.c_str());
      status = 1;
    }
    // Resume mode carries attempt 1's frozen chunks through the
    // checkpoint; a cold restart re-partitions on the final gang.
    const std::vector<int>& chunk_owners = m == 0
                                               ? rec.attempts.front().members
                                               : rec.attempts.back().members;
    const sched::JobOutput crash_solo =
        run_solo_ft(net, scene, stream.front(), chunk_owners);
    const bool match = outputs_equal(crashed.outputs.front(), crash_solo);
    add(condense(std::string(mode_name[m]) + "_crash", crashed,
                 clean_makespan[m], match));
    crash_makespan[m] = crashed.makespan_s;
    if (!match) {
      std::fprintf(stderr,
                   "bench_sched_resilience: %s_crash outputs diverged from "
                   "the uninterrupted solo run\n",
                   mode_name[m]);
      status = 1;
    }
  }

  bench::emit(table, setup.csv,
              "Scheduler resilience. One six-rank ATDCA job on the fully "
              "heterogeneous NOW: leader crash at 80%, checkpoint resume vs "
              "cold restart (virtual time).");

  // The recovery-cost contract: resume must beat cold restart on the
  // faulty makespan outright AND on the recovery overhead (so the win is
  // real even after paying for every checkpoint write).
  const double resume_overhead = crash_makespan[0] - clean_makespan[0];
  const double cold_overhead = crash_makespan[1] - clean_makespan[1];
  std::printf(
      "leader crash at 80%%: resume %.4f s (+%.4f), cold restart %.4f s "
      "(+%.4f) -- resume saves %.2fx the overhead\n",
      crash_makespan[0], resume_overhead, crash_makespan[1], cold_overhead,
      resume_overhead > 0.0 ? cold_overhead / resume_overhead : 0.0);
  if (crash_makespan[0] >= crash_makespan[1] ||
      resume_overhead >= cold_overhead) {
    std::fprintf(stderr,
                 "bench_sched_resilience: checkpoint resume failed to beat "
                 "cold restart\n");
    status = 1;
  }

  if (!json_path.empty() &&
      !bench::write_resilience_json(json_path, records)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }

  obs::RunSummary summary;
  for (const auto& rec : records) {
    const std::string prefix = "resilience." + rec.scenario;
    summary.set_number(prefix + ".makespan_s", rec.makespan_s);
    summary.set_number(prefix + ".recovery_overhead_s",
                       rec.recovery_overhead_s);
    summary.set_count(prefix + ".attempts", rec.attempts);
    summary.set_count(prefix + ".checkpoints",
                      static_cast<std::uint64_t>(rec.checkpoints));
    summary.set_count(prefix + ".resumed_seq",
                      static_cast<std::uint64_t>(rec.resumed_seq));
    summary.set_bool(prefix + ".outputs_match", rec.outputs_match);
  }
  if (!bench::write_summary(setup, summary)) return 1;
  return status;
}
