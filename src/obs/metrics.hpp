// Lightweight run-telemetry registry: named counters, gauges, and timers
// published by the vmpi engine, the fiber executor, the collective
// driver's recovery path, the algorithm runners, and the kernel scratch
// arenas.
//
// Two properties drive the design:
//
//  * Near-zero cost when disabled.  Every mutating call checks one relaxed
//    atomic and returns; hot code (the engine, ScratchArena) additionally
//    accumulates into plain per-run members and publishes once per run, so
//    the registry mutex is never taken on a per-operation path.
//
//  * A deterministic, golden-comparable core.  Metrics are tagged with a
//    Domain: kStable values derive only from virtual time, flop/byte
//    counts, or protocol decisions, so they are bit-identical across runs,
//    host schedules, and both executor modes (tests/obs_metrics_test.cpp);
//    kHost values (wall-clock timers, wakeup counts, queue depths) describe
//    the host execution and may legitimately vary.  Run summaries
//    (obs/run_summary.hpp) embed only the stable subset; tools/report_diff
//    compares stable fields exactly and host-time fields by threshold.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hprs::obs {

/// Who may legitimately change a metric's value between two identical runs.
enum class Domain : std::uint8_t {
  kStable,  ///< virtual-time / count domain: bit-identical across schedules
  kHost,    ///< wall-clock / host-scheduling domain: varies run to run
};

enum class MetricKind : std::uint8_t {
  kCounter,  ///< monotonically increasing integer (count / bytes / flops)
  kGauge,    ///< high-water mark kept with max()
  kTimer,    ///< accumulated seconds plus a sample count
};

struct MetricValue {
  MetricKind kind = MetricKind::kCounter;
  Domain domain = Domain::kStable;
  std::uint64_t count = 0;  ///< counter total, or timer sample count
  double value = 0.0;       ///< gauge level or accumulated timer seconds
  /// Optional per-rank breakdown of a counter (slot r sums the deltas
  /// reported for rank r; `count` keeps the aggregate over all ranks).
  std::vector<std::uint64_t> per_rank;

  friend bool operator==(const MetricValue&, const MetricValue&) = default;
};

/// Process-wide metrics registry.  Disabled (and empty) until a harness
/// opts in with set_enabled(true); see the header comment for the cost and
/// determinism contracts.
class Metrics {
 public:
  [[nodiscard]] static Metrics& instance();

  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Drops every recorded metric (the enabled flag is left alone).
  void reset();

  /// Adds `delta` to the counter `name`, creating it on first use.  When
  /// `rank` is non-negative the delta is also recorded in the counter's
  /// per-rank breakdown.  No-op while disabled.
  void add(std::string_view name, std::uint64_t delta,
           Domain domain = Domain::kStable, int rank = -1);

  /// Raises the gauge `name` to at least `value` (high-water semantics).
  void gauge_max(std::string_view name, double value,
                 Domain domain = Domain::kStable);

  /// Accumulates `seconds` into the timer `name` and bumps its sample
  /// count.  Timers describe host time, so they are always Domain::kHost.
  void time_add(std::string_view name, double seconds);

  /// Name-sorted copy of every recorded metric.
  using Snapshot = std::vector<std::pair<std::string, MetricValue>>;
  [[nodiscard]] Snapshot snapshot() const;

  /// The golden-comparable subset: every Domain::kStable entry.
  [[nodiscard]] static Snapshot stable_subset(const Snapshot& snapshot);

 private:
  Metrics() = default;

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::map<std::string, MetricValue, std::less<>> metrics_;
};

/// RAII enable + reset for tests and harnesses: clears the registry, turns
/// collection on, and restores the previous enabled state on destruction.
class ScopedMetrics {
 public:
  ScopedMetrics() : saved_(Metrics::instance().enabled()) {
    Metrics::instance().reset();
    Metrics::instance().set_enabled(true);
  }
  ~ScopedMetrics() { Metrics::instance().set_enabled(saved_); }
  ScopedMetrics(const ScopedMetrics&) = delete;
  ScopedMetrics& operator=(const ScopedMetrics&) = delete;

 private:
  bool saved_;
};

}  // namespace hprs::obs
