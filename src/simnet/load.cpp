#include "simnet/load.hpp"

#include "common/error.hpp"
#include "common/rng.hpp"

namespace hprs::simnet {

Platform with_background_load(const Platform& platform,
                              std::span<const double> load) {
  HPRS_REQUIRE(load.size() == platform.size(),
               "one load value per processor required");
  std::vector<ProcessorSpec> procs = platform.processors();
  for (std::size_t i = 0; i < procs.size(); ++i) {
    HPRS_REQUIRE(load[i] >= 0.0 && load[i] < 1.0,
                 "background load must lie in [0, 1)");
    procs[i].cycle_time /= (1.0 - load[i]);
  }
  std::vector<std::vector<double>> capacity(
      platform.segment_count(),
      std::vector<double>(platform.segment_count()));
  for (std::size_t a = 0; a < platform.segment_count(); ++a) {
    for (std::size_t b = 0; b < platform.segment_count(); ++b) {
      capacity[a][b] = platform.segment_capacity_ms_per_mbit(a, b);
    }
  }
  return Platform(platform.name() + "+load", std::move(procs),
                  std::move(capacity), platform.switched_fabric());
}

std::vector<std::vector<double>> load_epochs(std::size_t nodes,
                                             std::size_t epochs,
                                             double max_load,
                                             std::uint64_t seed) {
  HPRS_REQUIRE(max_load >= 0.0 && max_load < 1.0,
               "max_load must lie in [0, 1)");
  Xoshiro256 rng(seed);
  std::vector<std::vector<double>> out(epochs, std::vector<double>(nodes));
  for (auto& epoch : out) {
    for (auto& l : epoch) {
      l = rng.uniform(0.0, max_load);
    }
  }
  return out;
}

}  // namespace hprs::simnet
