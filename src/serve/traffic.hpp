// Deterministic arrival-trace generators for the scene service.
//
// A trace is a finite stream of sched::JobSpec requests with tenant ids,
// drawn from a seeded generator so the same TraceConfig always produces the
// byte-identical stream (tests/serve_traffic_test.cpp).  Shapes model the
// production traffic families the serving literature benchmarks against
// (Paraskevakos 2019, Al-Saadi 2020): steady Poisson-like load, a diurnal
// day/night cycle, bursty flash crowds over a background trickle, and a
// multi-tenant mix with skewed per-tenant weights.  Traces round-trip
// through the repo's flat-JSON dialect (trace_json / parse_trace_json) so a
// captured trace replays exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sched/job.hpp"

namespace hprs::serve {

/// Arrival-process family of a generated trace.
enum class TrafficShape : std::uint8_t {
  /// Homogeneous load: arrivals are sorted uniform draws over the trace
  /// duration (a Poisson process conditioned on the request count).
  kSteady,
  /// Day/night cycle: rate(t) = 1 + amplitude * cos(2 pi cycles t / T),
  /// sampled by inverting the integrated rate, so arrivals crowd the peaks.
  kDiurnal,
  /// Flash crowds: a burst_fraction share of requests lands in narrow
  /// normal-shaped bursts at seeded centers; the rest is steady background.
  kBursty,
  /// Steady arrivals with a skewed multi-tenant mix (the default tenant
  /// set when the config lists none).
  kTenantMix,
};

[[nodiscard]] const char* to_string(TrafficShape shape);
[[nodiscard]] TrafficShape parse_traffic_shape(std::string_view name);

/// One tenant's request template: every request the tenant submits is
/// stamped from this profile (algorithm cycled, width drawn in range).
struct TenantProfile {
  std::string name = "default";
  /// Relative share of the trace's requests this tenant submits.
  double weight = 1.0;
  /// Algorithms the tenant cycles through (round-robin per tenant).
  std::vector<core::Algorithm> algorithms = {core::Algorithm::kAtdca};
  /// Requested gang width is drawn uniformly in [min_ranks, max_ranks].
  int min_ranks = 1;
  int max_ranks = 4;
  /// Identity of the scene / endmember library the tenant's requests
  /// reference; requests sharing a scene_uid and parameters are
  /// batchable (serve/batcher.hpp).
  std::uint64_t scene_uid = 0;
  // -- request parameter template (sched::JobSpec fields) -----------------
  std::size_t targets = 8;
  std::size_t classes = 5;
  std::size_t iterations = 2;
  std::size_t kernel_radius = 1;
  std::size_t skewers = 64;
  std::uint64_t seed = 1;
  std::size_t replication = 1;
};

/// Seeded description of one trace.
struct TraceConfig {
  TrafficShape shape = TrafficShape::kSteady;
  std::size_t jobs = 64;
  /// Virtual span arrivals are drawn over, seconds.
  double duration_s = 600.0;
  std::uint64_t seed = 1;
  /// kDiurnal: relative rate swing in [0, 1) and cycles over the span.
  double diurnal_amplitude = 0.8;
  double diurnal_cycles = 2.0;
  /// kBursty: share of requests inside bursts, burst count, and the
  /// normal-spread (seconds) of each burst around its center.
  double burst_fraction = 0.6;
  std::size_t bursts = 3;
  double burst_width_s = 10.0;
  /// Submitting tenants; empty means one "default" tenant (kTenantMix
  /// substitutes default_tenant_mix()).
  std::vector<TenantProfile> tenants;
};

/// The skewed three-tenant mix the serving benchmarks use: a heavy
/// "survey" tenant sharing one scene (batchable), a "tasking" tenant with
/// wide gangs, and a light "adhoc" tail.
[[nodiscard]] std::vector<TenantProfile> default_tenant_mix();

/// Named trace presets for drivers: "steady", "diurnal", "bursty",
/// "tenant-mix" (throws Error on anything else).
[[nodiscard]] TraceConfig preset_trace(std::string_view name);

/// Generates the trace: requests sorted by arrival, ids 1..jobs in arrival
/// order, tenants weighted-drawn, batch keys stamped from each tenant's
/// scene_uid (serve::batch_key).  Pure function of `config`.
[[nodiscard]] std::vector<sched::JobSpec> generate_trace(
    const TraceConfig& config);

/// Serializes a trace in the repo's flat-JSON dialect ("req.NNNNNN.field"
/// keys, %.17g doubles): each request's placement fields plus every field
/// of core::for_each_field, so replay is exact.
[[nodiscard]] std::string trace_json(
    const std::vector<sched::JobSpec>& trace);

/// Parses trace_json output back into the identical stream.  Throws Error
/// on malformed documents, naming the key for a missing field, a number
/// that is not a whole number fitting its field (0/1 for `policy` and
/// `charge_data_staging`), a non-finite number, an unknown algorithm, or a
/// `trace.jobs` larger than the document can hold.
[[nodiscard]] std::vector<sched::JobSpec> parse_trace_json(
    std::string_view text);

}  // namespace hprs::serve
