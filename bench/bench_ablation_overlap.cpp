// Ablation: MORPH's overlap borders (redundant computation) versus
// per-iteration halo exchange (extra communication) -- the design choice
// Section 2.3 of the paper motivates.
//
// Expected shape: overlap borders win on time on every network (the paper's
// rationale), most clearly where links are slow; the label images of the
// two modes agree almost everywhere.
#include <algorithm>
#include <vector>

#include "bench_common.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace hprs;
  const auto setup = bench::make_setup(argc, argv, bench::Summary::kNone);

  TextTable table({"Network", "Overlap time (s)", "Exchange time (s)",
                   "Overlap bytes", "Exchange bytes", "Label agreement %"});
  for (const auto& net : bench::paper_networks()) {
    auto cfg = setup.config;
    cfg.algorithm = core::Algorithm::kMorph;
    cfg.morph_overlap_borders = true;
    const auto overlap = core::run_algorithm(net, setup.scene.cube, cfg);
    cfg.morph_overlap_borders = false;
    const auto exchange = core::run_algorithm(net, setup.scene.cube, cfg);

    // Label ids are arbitrary cluster indices; match each overlap-mode
    // label to the exchange-mode label it most co-occurs with before
    // measuring agreement.
    std::vector<std::vector<std::size_t>> cooc(
        overlap.label_count, std::vector<std::size_t>(exchange.label_count));
    for (std::size_t i = 0; i < overlap.labels.size(); ++i) {
      ++cooc[overlap.labels[i]][exchange.labels[i]];
    }
    std::vector<std::size_t> mapped(overlap.label_count, 0);
    for (std::size_t l = 0; l < overlap.label_count; ++l) {
      mapped[l] = static_cast<std::size_t>(
          std::max_element(cooc[l].begin(), cooc[l].end()) - cooc[l].begin());
    }
    std::size_t agree = 0;
    for (std::size_t i = 0; i < overlap.labels.size(); ++i) {
      if (mapped[overlap.labels[i]] == exchange.labels[i]) ++agree;
    }
    table.add_row(
        {net.name(), TextTable::num(overlap.report.total_time, 1),
         TextTable::num(exchange.report.total_time, 1),
         TextTable::num(
             static_cast<long long>(overlap.report.total_bytes_moved())),
         TextTable::num(
             static_cast<long long>(exchange.report.total_bytes_moved())),
         TextTable::num(100.0 * static_cast<double>(agree) /
                            static_cast<double>(overlap.labels.size()),
                        2)});
  }
  bench::emit(table, setup.csv,
              "Ablation: MORPH overlap borders (redundant compute) vs halo "
              "exchange (extra communication).");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hprs::run_main(argc, argv, run, 1);
}
