// Table 6: communication (COM), sequential computation (SEQ) and parallel
// computation (PAR) times for every algorithm/network combination.
//
// Paper shapes to hold: PAR dominates COM everywhere; PCT carries the
// largest SEQ component (its sequential eigendecomposition) and MORPH by
// far the smallest; the homogeneous versions' PAR explodes on
// heterogeneous-processor networks.
//
// A second table pins the tiled task-graph runtime's comm/compute overlap:
// PCT and ATDCA on accelerated gangs (simnet::accelerated_now), monolithic
// staging against the streamed per-tile driver
// (core::RunnerConfig::tile_stream).  Streaming must never lose, and wins
// once the accelerated ranks own enough rows for steady-state overlap --
// the narrow 1+3 gang shows the win already at smoke sizes, the wider 2+2
// gang at the full default scene.  At the default size, the --summary of
// both tables is the committed BENCH_stream.json.
#include "bench_common.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace hprs;
  const auto setup = bench::make_setup(argc, argv, bench::Summary::kWritten);
  const auto records = bench::network_sweep(setup);

  TextTable table({"Algorithm", "Network", "COM", "SEQ", "PAR", "Total"});
  for (const auto& rec : records) {
    table.add_row({core::display_name(rec.algorithm, rec.policy), rec.network,
                   TextTable::num(rec.report.com(), 1),
                   TextTable::num(rec.report.seq(), 1),
                   TextTable::num(rec.report.par(), 1),
                   TextTable::num(rec.report.total_time, 1)});
  }
  bench::emit(table, setup.csv,
              "Table 6. Communication (COM), sequential computation (SEQ) "
              "and parallel computation (PAR) times in seconds.");

  obs::RunSummary summary;
  for (const auto& rec : records) {
    obs::add_run_report(summary,
                        "table6." + bench::summary_prefix(rec.algorithm,
                                                          rec.policy,
                                                          rec.network),
                        rec.report);
  }

  // --- streamed tiling vs monolithic staging on accelerated gangs ---------
  struct Gang {
    std::size_t cpus;
    std::size_t accels;
  };
  const std::vector<Gang> gangs = {{1, 3}, {2, 2}};
  TextTable stream_table(
      {"Algorithm", "Gang", "Monolithic", "Streamed", "Win %"});
  for (const Gang& gang : gangs) {
    const simnet::Platform plat =
        simnet::accelerated_now(gang.cpus, gang.accels);
    for (const auto alg : {core::Algorithm::kPct, core::Algorithm::kAtdca}) {
      auto cfg = setup.config;
      cfg.algorithm = alg;
      const auto mono = core::run_algorithm(plat, setup.scene.cube, cfg);
      cfg.tile_stream = true;
      const auto streamed = core::run_algorithm(plat, setup.scene.cube, cfg);
      const double mono_s = mono.report.total_time;
      const double streamed_s = streamed.report.total_time;
      const double win_pct =
          mono_s > 0.0 ? 100.0 * (1.0 - streamed_s / mono_s) : 0.0;
      const std::string gang_name = "cpu" + std::to_string(gang.cpus) +
                                    "-acc" + std::to_string(gang.accels);
      stream_table.add_row({core::to_string(alg), gang_name,
                            TextTable::num(mono_s, 2),
                            TextTable::num(streamed_s, 2),
                            TextTable::num(win_pct, 2)});
      const std::string prefix = std::string("table6.stream.") +
                                 core::to_string(alg) + "." + gang_name;
      obs::add_run_report(summary, prefix + ".mono", mono.report);
      obs::add_run_report(summary, prefix + ".tiled", streamed.report);
    }
  }
  bench::emit(stream_table, setup.csv,
              "Streamed tiling vs monolithic staging on accelerated gangs "
              "(virtual seconds; win = makespan saved by per-tile overlap).");
  return bench::write_summary(setup.summary_path, summary) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return hprs::run_main(argc, argv, run, 1);
}
