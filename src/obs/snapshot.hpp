// Deterministic virtual-time snapshot service for the pvar counter plane.
//
// The engine (and the scheduler's dispatcher) sample their stable pvars on
// a seeded, jittered virtual-time cadence -- the same idiom PR 8 uses for
// checkpoint scheduling -- and append the samples to a per-run
// SnapshotTimeline carried in vmpi::RunReport.  Because every sample is
// taken at a point that is itself a pure function of the virtual protocol
// (a collective boundary, or a deterministic dispatcher loop event), and
// the cadence depends only on (seed, scope id), the whole timeline of
// stable pvars is reproducible bit for bit across runs and across host
// execution modes.  That is what lets CI golden-gate the *time series*,
// not just end-of-run totals: a counter that drifts mid-run and recovers
// by the end still diverges at some sample.
//
// Export formats:
//   - snapshot_timeline_json(): a flat one-key-per-line JSON object in the
//     RunSummary dialect (parse_flat_json-compatible), key
//     "<scope>|<seq>|<pvar>", suitable for report_diff timeline gating.
//   - snapshot_timeline_csv(): long-form rows for spreadsheets / pandas.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "obs/pvar.hpp"

namespace hprs::obs {

/// Seed of every snapshot cadence; each scope mixes in its own id, and the
/// value differs from the other seeded cadences (e.g. checkpoints).
inline constexpr std::uint64_t kDefaultSnapshotSeed = 0x5eedbea7'0b5e55edULL;

/// Snapshot service configuration, carried in vmpi::Engine::Options.
/// Disabled by default: enabling snapshots never changes virtual-time
/// results, but keeping the default off preserves existing host-time
/// behaviour and report contents byte for byte.
struct SnapshotConfig {
  bool enabled = false;
  double interval_s = 0.05;  ///< mean virtual-time sampling interval
};

/// Seeded jittered virtual-time cadence (the PR 8 checkpoint idiom): each
/// gap is interval * (0.75 + 0.5u) with u drawn from a SplitMix64 stream
/// keyed on (seed, scope id), so two scopes sample at decorrelated points
/// yet every run reproduces the exact same schedule.
class SnapshotCadence {
 public:
  SnapshotCadence() = default;
  SnapshotCadence(double interval_s, std::uint64_t seed,
                  std::uint64_t scope_id)
      : interval_s_(interval_s), rng_(seed ^ scope_id) {
    due_s_ = next_gap();
  }

  /// Virtual time at/after which the next sample is due.
  [[nodiscard]] double due_s() const { return due_s_; }

  /// True when `now_s` has reached the next sample point.
  [[nodiscard]] bool due(double now_s) const { return now_s >= due_s_; }

  /// Advances the schedule past `now_s`.  A long gap between visits skips
  /// the intermediate points rather than emitting a burst of stale
  /// samples; the skipped points are still drawn so the schedule stays a
  /// pure function of (seed, scope id).
  void advance_past(double now_s) {
    while (due_s_ <= now_s) due_s_ += next_gap();
  }

 private:
  double next_gap() {
    const double u =
        static_cast<double>(rng_.next() >> 11) * 0x1.0p-53;  // [0, 1)
    return interval_s_ * (0.75 + 0.5 * u);
  }

  double interval_s_ = 0.05;
  double due_s_ = 0.0;
  SplitMix64 rng_{0};
};

/// One timeline entry: a pvar sample taken in `scope` at virtual time
/// `t_s`.  `seq` numbers the samples of a scope in append order, so a
/// scope's series stays ordered even if two samples share a timestamp.
struct SnapshotSample {
  std::string scope;
  int seq = 0;
  double t_s = 0.0;
  PvarSet pvars;

  friend bool operator==(const SnapshotSample&, const SnapshotSample&) =
      default;
};

/// Append-only per-run snapshot timeline.  Thread safety is the caller's
/// concern (the engine appends under its own mutex).  finalize() imposes
/// the canonical (t_s, scope, seq) order so concurrent scopes serialize
/// deterministically in the export.
class SnapshotTimeline {
 public:
  /// Appends one sample for `scope`, assigning the scope's next seq.
  int append(std::string_view scope, double t_s, const PvarSet& pvars);

  void append_sample(SnapshotSample sample);

  [[nodiscard]] const std::vector<SnapshotSample>& samples() const {
    return samples_;
  }
  [[nodiscard]] bool empty() const { return samples_.empty(); }
  [[nodiscard]] std::size_t size() const { return samples_.size(); }
  void clear();

  /// Sorts samples into the canonical (t_s, scope, seq) order.
  void finalize();

  friend bool operator==(const SnapshotTimeline& a, const SnapshotTimeline& b) {
    return a.samples_ == b.samples_;
  }

 private:
  std::vector<SnapshotSample> samples_;
  std::map<std::string, int, std::less<>> next_seq_;
};

/// Makes a scope label safe for use inside flat-JSON keys and CSV cells:
/// '|', '"', '\\', ',' and whitespace/control bytes become '_'.
[[nodiscard]] std::string sanitize_scope(std::string_view scope);

/// Flat key->token map of the timeline, RunSummary-token dialect:
///   "<scope>|<seq %06d>|t_s"     -> %.17g virtual timestamp
///   "<scope>|<seq %06d>|<pvar>"  -> counter: decimal integer
///                                   level/timer: %.17g with a forced
///                                   decimal marker (disambiguates the
///                                   class on re-parse)
/// plus "_timeline.samples" / "_timeline.scopes" header counts.  Host-
/// domain pvars whose names lack "host" get ".host" appended so the
/// report_diff threshold rule applies.
[[nodiscard]] std::map<std::string, std::string> snapshot_timeline_flat(
    const SnapshotTimeline& timeline);

/// The flat map rendered as a one-key-per-line JSON object (same dialect
/// as RunSummary::to_json, parseable by parse_flat_json).
[[nodiscard]] std::string snapshot_timeline_json(
    const SnapshotTimeline& timeline);

/// Long-form CSV: "scope,seq,t_s,name,class,domain,count,value".
[[nodiscard]] std::string snapshot_timeline_csv(
    const SnapshotTimeline& timeline);

}  // namespace hprs::obs
