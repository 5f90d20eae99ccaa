// Named performance variables (pvars), modeled on the MPI_T / Open MPI SPC
// design: every counter the runtime exposes is a named variable with a
// class (counter / level / timer) and a determinism domain.  A PvarSet is
// one *sample* of such variables -- a named, name-sorted value vector --
// and is the payload of the virtual-time snapshot service
// (obs/snapshot.hpp), which strings samples into a per-run timeline.
//
// The classes mirror obs::MetricKind (counters accumulate, levels are
// instantaneous readings, timers carry host seconds plus a sample count),
// and the stable-vs-host Domain split carries over unchanged: a stable
// pvar's value at any snapshot is a pure function of the virtual protocol,
// so whole timelines of stable pvars are golden-comparable bit for bit;
// host pvars legitimately vary and are compared by threshold.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace hprs::obs {

/// MPI_T-style variable class.  kCounter accumulates monotonically,
/// kLevel is an instantaneous reading (queue depth, bytes in flight),
/// kTimer carries accumulated host seconds plus a sample count.
enum class PvarClass : std::uint8_t { kCounter, kLevel, kTimer };

[[nodiscard]] const char* to_string(PvarClass cls);

/// One named performance variable reading.
struct Pvar {
  std::string name;
  PvarClass cls = PvarClass::kCounter;
  Domain domain = Domain::kStable;
  std::uint64_t count = 0;  ///< counter total, or timer sample count
  double value = 0.0;       ///< level reading, or timer seconds

  friend bool operator==(const Pvar&, const Pvar&) = default;
};

/// One sample of named pvars.  Insertion order is irrelevant: sorted()
/// always presents the variables in name order, so two samples built from
/// the same state compare equal regardless of how they were assembled.
class PvarSet {
 public:
  void counter(std::string_view name, std::uint64_t total,
               Domain domain = Domain::kStable);
  void level(std::string_view name, double value,
             Domain domain = Domain::kStable);
  /// Timers describe host time and are always Domain::kHost.
  void timer(std::string_view name, double seconds, std::uint64_t samples);

  void clear() {
    vars_.clear();
    dirty_ = false;
  }
  [[nodiscard]] bool empty() const { return vars_.empty(); }
  [[nodiscard]] std::size_t size() const { return vars_.size(); }

  /// The variables in name order (sorted lazily after mutation).
  [[nodiscard]] const std::vector<Pvar>& sorted() const;

  friend bool operator==(const PvarSet& a, const PvarSet& b) {
    return a.sorted() == b.sorted();
  }

 private:
  mutable std::vector<Pvar> vars_;
  mutable bool dirty_ = false;
};

}  // namespace hprs::obs
