// Comparator for RunSummary JSON documents -- the decision procedure of
// the CI bench-smoke gate (tools/report_diff, scripts/bench_smoke.sh).
//
// Policy (see DESIGN.md §10):
//  * Stable keys must match as raw character-for-character JSON tokens.
//    Virtual time is deterministic, so anything short of identity is a
//    regression (or an intentional change, regenerated with
//    scripts/bench_smoke.sh --update).
//  * Keys whose name contains "host" carry wall-clock measurements and are
//    compared numerically with generous relative/absolute tolerances --
//    they gate only order-of-magnitude performance collapses.
//  * A key present on one side only is always a failure: summaries are
//    schemas as much as values.
//  * Keys under "_metadata." record how a summary was measured (hardware
//    threads, kernel threads) and are never compared: either side may lack
//    them or carry other values.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/snapshot.hpp"

namespace hprs::obs {

/// Parses the flat one-object JSON produced by RunSummary::to_json into
/// key -> raw-value-token.  Returns false (and sets `error`, naming the key
/// when a value is at fault) on documents that are not in that shape; this
/// is a reader for our own writer, not a general JSON parser.
bool parse_flat_json(std::string_view text,
                     std::map<std::string, std::string>& out,
                     std::string& error);

/// Decodes `token`, one JSON string literal with its quotes, into `out` with
/// the decoder parse_flat_json applies to keys: the escapes \" \\ \/ \b \f
/// \n \r \t and \u followed by four hex digits of an ASCII code point.
/// Returns false (and sets `error`) on anything else.
bool decode_string_token(std::string_view token, std::string& out,
                         std::string& error);

/// True when `key` is compared by threshold instead of exact identity.
[[nodiscard]] bool is_host_time_key(std::string_view key);

struct DiffOptions {
  /// Host values pass when within `rel_tol` RELATIVE factor of golden
  /// (actual <= golden * rel_tol and golden <= actual * rel_tol) or within
  /// `abs_tol` absolute difference.  Defaults are deliberately loose: the
  /// gate exists to catch collapses, not jitter.
  double host_rel_tol = 10.0;
  double host_abs_tol = 5.0;
};

struct DiffEntry {
  std::string key;
  std::string golden;  ///< raw token, or "<missing>"
  std::string actual;  ///< raw token, or "<missing>"
  std::string reason;
};

struct DiffResult {
  std::vector<DiffEntry> mismatches;
  std::size_t keys_compared = 0;
  [[nodiscard]] bool ok() const { return mismatches.empty(); }
};

[[nodiscard]] DiffResult diff_summaries(
    const std::map<std::string, std::string>& golden,
    const std::map<std::string, std::string>& actual,
    const DiffOptions& options = {});

/// Reconstructs a SnapshotTimeline from the flat map written by
/// snapshot_timeline_flat/json ("<scope>|<seq>|<name>" keys).  Token shape
/// decides the pvar class (decimal integer -> counter, decimal-marked ->
/// level) and the "host" substring decides the domain -- enough for replay
/// display and re-export; timer sample counts are not representable in the
/// flat form and come back as levels.  Keys outside the timeline shape
/// (other than the "_timeline." header) fail the parse.
bool timeline_from_flat(const std::map<std::string, std::string>& flat,
                        SnapshotTimeline& out, std::string& error);

struct TimelineDiffResult {
  DiffResult diff;
  /// When !diff.ok(): a one-line localization of the earliest diverging
  /// sample in virtual time, e.g.
  ///   "first divergence at t=0.125 s: scope \"job:3/atdca\" sample 7,
  ///    key \"p2p.wire_bytes\"".
  std::string first_divergence;
  [[nodiscard]] bool ok() const { return diff.ok(); }
};

/// diff_summaries over a full snapshot timeline: stable series must be
/// character-exact, host series thresholded -- so a counter that drifts
/// mid-run fails even when end-state totals agree.  On mismatch, the
/// earliest divergence is localized by the golden timeline's timestamps.
[[nodiscard]] TimelineDiffResult diff_timelines(
    const std::map<std::string, std::string>& golden,
    const std::map<std::string, std::string>& actual,
    const DiffOptions& options = {});

}  // namespace hprs::obs
