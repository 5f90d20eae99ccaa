// Tables 1 and 2 of the paper: the heterogeneous platform description, plus
// the Lastovetsky-Reddy equivalence report for the four networks.  These are
// inputs to every other experiment; printing them verifies the encoded
// platform model against the published specification.
#include <cstdio>

#include "bench_common.hpp"
#include "simnet/equivalence.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace hprs;
  (void)CliArgs(argc, argv, {});  // takes no options
  const simnet::Platform het = simnet::fully_heterogeneous();

  TextTable table1({"Processor", "Architecture", "Cycle-time (s/Mflop)",
                    "Memory (MB)", "Cache (KB)", "Segment"});
  for (std::size_t i = 0; i < het.size(); ++i) {
    const auto& p = het.processor(i);
    table1.add_row({p.name, p.architecture, TextTable::num(p.cycle_time, 4),
                    TextTable::num(static_cast<long long>(p.memory_mb)),
                    TextTable::num(static_cast<long long>(p.cache_kb)),
                    "s" + std::to_string(p.segment + 1)});
  }
  bench::emit(table1, false, "Table 1. Specifications of heterogeneous processors.");

  TextTable table2({"Segment", "s1", "s2", "s3", "s4"});
  for (std::size_t a = 0; a < 4; ++a) {
    std::vector<std::string> row = {"s" + std::to_string(a + 1)};
    // Representative processors per segment: 0, 4, 8, 10.
    const std::size_t reps[4] = {0, 4, 8, 10};
    for (std::size_t b = 0; b < 4; ++b) {
      row.push_back(TextTable::num(het.link_ms_per_mbit(reps[a], reps[b])));
    }
    table2.add_row(row);
  }
  bench::emit(table2, false,
              "\nTable 2. Capacity of communication links "
              "(ms per one-megabit message).");

  std::printf("\nEquivalence of the experimental networks "
              "(Lastovetsky-Reddy principles):\n");
  for (const auto& net : bench::paper_networks()) {
    const auto rep = simnet::check_equivalence(het, net, 0.05);
    std::printf("  vs %-26s %s\n", net.name().c_str(),
                rep.to_string().c_str());
  }
  std::printf("\nAggregate characteristics:\n");
  for (const auto& net : bench::paper_networks()) {
    std::printf(
        "  %-26s avg speed %7.1f Mflop/s   avg link %6.2f ms/mbit   "
        "speed spread %5.2fx   link spread %5.2fx\n",
        net.name().c_str(), net.average_speed(),
        net.average_link_ms_per_mbit(), net.speed_heterogeneity(),
        net.link_heterogeneity());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hprs::run_main(argc, argv, run, 1);
}
