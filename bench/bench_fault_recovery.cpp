// Fault-tolerant recovery overhead (paper Sect. 6 outlook: fault tolerance
// on networks of workstations).
//
// For every algorithm on the fully heterogeneous and fully homogeneous
// 16-node networks, runs the collective schedule (core/ft.hpp), which
// recovers in place from rank crashes, under escalating deterministic
// fault plans and reports the recovery-overhead decomposition next to the
// fault-free run time:
//
//   none      -- empty fault plan (the fault-free run)
//   crash1    -- rank 5 fail-stops a quarter into the fault-free run
//   crash2    -- ranks 5 and 11 fail-stop at 25% / 50% of the run
//   crash+net -- crash1 plus every inter-segment link at 4x capacity
//                (ms per megabit) for the middle half of the run
//
// Every scenario's outputs are compared bit for bit against the fault-free
// collective outputs; `match` must read "yes" everywhere -- recovery must
// never change the science.  --summary writes every cell as a run summary;
// at the default size that summary is the committed BENCH_fault.json.
#include "bench_common.hpp"

namespace {

using hprs::vmpi::FaultPlan;

struct Scenario {
  std::string name;
  /// Builds the plan from the fault-free virtual run time and the
  /// platform's segment count.
  FaultPlan (*plan)(double fault_free_s, std::size_t segments);
};

FaultPlan plan_none(double, std::size_t) { return {}; }

FaultPlan plan_crash1(double t, std::size_t) {
  FaultPlan plan;
  plan.crashes.push_back({5, 0.25 * t});
  return plan;
}

FaultPlan plan_crash2(double t, std::size_t) {
  FaultPlan plan;
  plan.crashes.push_back({5, 0.25 * t});
  plan.crashes.push_back({11, 0.50 * t});
  return plan;
}

FaultPlan plan_crash_net(double t, std::size_t segments) {
  FaultPlan plan = plan_crash1(t, segments);
  // Saturate every segment pair for the middle half of the run.
  for (std::size_t a = 0; a < segments; ++a) {
    for (std::size_t b = a; b < segments; ++b) {
      plan.degradations.push_back({a, b, 4.0, 0.25 * t, 0.75 * t});
    }
  }
  return plan;
}

int run(int argc, char** argv) {
  using namespace hprs;
  const auto setup = bench::make_setup(argc, argv, bench::Summary::kWritten);

  const std::vector<Scenario> scenarios = {
      {"none", plan_none},
      {"crash1", plan_crash1},
      {"crash2", plan_crash2},
      {"crash+net", plan_crash_net},
  };
  const std::vector<simnet::Platform> networks = {
      simnet::fully_heterogeneous(), simnet::fully_homogeneous()};

  obs::RunSummary summary;
  TextTable table({"Algorithm", "Network", "Scenario", "Time (s)",
                   "Detect (s)", "Redist (s)", "Recompute (s)", "Match"});
  for (const auto alg : bench::all_algorithms()) {
    for (const auto& net : networks) {
      auto cfg = setup.config;
      cfg.algorithm = alg;
      cfg.policy = core::PartitionPolicy::kHeterogeneous;

      // Fault-free reference: the outputs every faulted run must
      // reproduce, and the run time the fault plans key off.
      const auto reference = core::run_algorithm(net, setup.scene.cube, cfg);
      const double fault_free_s = reference.report.total_time;

      for (const auto& scenario : scenarios) {
        vmpi::Options options;
        options.fault_plan =
            scenario.plan(fault_free_s, net.segment_count());
        const auto run =
            core::run_algorithm(net, setup.scene.cube, cfg, options);
        const bool match = run.targets == reference.targets &&
                           run.labels == reference.labels;
        const vmpi::RecoveryStats& recovery = run.report.recovery;

        table.add_row({core::to_string(alg), net.name(), scenario.name,
                       TextTable::num(run.report.total_time, 3),
                       TextTable::num(recovery.detection_s, 3),
                       TextTable::num(recovery.redistribution_s, 3),
                       TextTable::num(recovery.recomputed_s, 3),
                       match ? "yes" : "NO"});

        const std::string prefix = std::string("fault.") +
                                   core::to_string(alg) + "." + net.name() +
                                   "." + scenario.name;
        summary.set_number(prefix + ".virtual_s", run.report.total_time);
        summary.set_number(prefix + ".detection_s", recovery.detection_s);
        summary.set_number(prefix + ".redistribution_s",
                           recovery.redistribution_s);
        summary.set_number(prefix + ".recomputed_s", recovery.recomputed_s);
        summary.set_count(prefix + ".recomputed_flops",
                          recovery.recomputed_flops);
        summary.set_count(prefix + ".crashes",
                          static_cast<std::uint64_t>(recovery.crashes));
        summary.set_count(prefix + ".detections",
                          static_cast<std::uint64_t>(recovery.detections));
        summary.set_bool(prefix + ".outputs_match", match);
      }
    }
  }

  bench::emit(table, setup.csv,
              "Fault recovery. Overhead decomposition of the collective "
              "schedule under deterministic fault plans.");
  return bench::write_summary(setup.summary_path, summary) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return hprs::run_main(argc, argv, run, 1);
}
