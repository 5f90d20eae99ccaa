// Platform comparison: reproduce the experimental design of the paper's
// Section 3 in miniature -- run a heterogeneous algorithm and its
// homogeneous baseline on the four equivalent networks of workstations and
// compare execution times, timing decomposition, and load balance.
//
//   ./platform_comparison [--rows N] [--cols N] [--algorithm atdca|ufcls|pct|morph]
//                         [--replication K] [--seed S]
#include <cstdio>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/runner.hpp"
#include "hsi/scene.hpp"
#include "simnet/equivalence.hpp"
#include "simnet/platform.hpp"

namespace {

hprs::core::Algorithm parse_algorithm(const std::string& s) {
  using hprs::core::Algorithm;
  if (s == "atdca") return Algorithm::kAtdca;
  if (s == "ufcls") return Algorithm::kUfcls;
  if (s == "pct") return Algorithm::kPct;
  if (s == "morph") return Algorithm::kMorph;
  throw hprs::Error("unknown algorithm '" + s + "'");
}

int run(int argc, char** argv) {
  using namespace hprs;
  const CliArgs args(argc, argv,
                     {"rows", "cols", "algorithm", "replication", "seed"});

  hsi::SceneConfig scene_cfg;
  scene_cfg.rows = static_cast<std::size_t>(args.get_int("rows", 96));
  scene_cfg.cols = static_cast<std::size_t>(args.get_int("cols", 96));
  scene_cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 20010916));
  const hsi::Scene scene = hsi::generate_wtc_scene(scene_cfg);

  const std::vector<simnet::Platform> networks = {
      simnet::fully_heterogeneous(),
      simnet::fully_homogeneous(),
      simnet::partially_heterogeneous(),
      simnet::partially_homogeneous(),
  };

  // The evaluation framework rests on the networks being (approximately)
  // equivalent in aggregate power; report how closely they are.
  std::printf("Lastovetsky-Reddy equivalence vs fully-heterogeneous:\n");
  for (std::size_t i = 1; i < networks.size(); ++i) {
    const auto rep = simnet::check_equivalence(networks[0], networks[i], 0.25);
    std::printf("  %-26s %s\n", networks[i].name().c_str(),
                rep.to_string().c_str());
  }
  std::printf("\n");

  core::RunnerConfig cfg;
  cfg.algorithm = parse_algorithm(args.get("algorithm", "atdca"));
  cfg.replication =
      static_cast<std::size_t>(args.get_int("replication", 64));

  TextTable table({"Version", "Network", "Time (s)", "COM", "SEQ", "PAR",
                   "D_all", "D_minus"});
  for (const auto policy : {core::PartitionPolicy::kHeterogeneous,
                            core::PartitionPolicy::kHomogeneous}) {
    cfg.policy = policy;
    for (const auto& net : networks) {
      const auto out = core::run_algorithm(net, scene.cube, cfg);
      table.add_row({core::display_name(cfg.algorithm, policy), net.name(),
                     TextTable::num(out.report.total_time),
                     TextTable::num(out.report.com()),
                     TextTable::num(out.report.seq()),
                     TextTable::num(out.report.par()),
                     TextTable::num(out.report.imbalance_all(), 3),
                     TextTable::num(out.report.imbalance_minus_root(), 3)});
    }
  }
  std::printf("%s", table.to_string().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hprs::run_main(argc, argv, run, 1);
}
