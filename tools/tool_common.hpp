// Helpers shared by the scheduler-driving tools (top_run, trace_run).
#pragma once

#include <cstddef>
#include <fstream>
#include <string>

#include "simnet/platform.hpp"

namespace hprs::tools {

/// The --network names both tools accept; false for an unknown name.
inline bool make_platform(const std::string& name, std::size_t cpus,
                          std::size_t accels, simnet::Platform& out) {
  if (name == "fully-heterogeneous") {
    out = simnet::fully_heterogeneous();
  } else if (name == "fully-homogeneous") {
    out = simnet::fully_homogeneous();
  } else if (name == "partially-heterogeneous") {
    out = simnet::partially_heterogeneous();
  } else if (name == "partially-homogeneous") {
    out = simnet::partially_homogeneous();
  } else if (name == "thunderhead") {
    out = simnet::thunderhead(cpus);
  } else if (name == "accelerated-now") {
    out = simnet::accelerated_now(cpus, accels);
  } else {
    return false;
  }
  return true;
}

inline bool write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary);
  if (!f) return false;
  f << text;
  return f.good();
}

}  // namespace hprs::tools
