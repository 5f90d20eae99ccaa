// Trace-generator properties: same seed -> byte-identical streams, seeds
// diverge, JSON round-trip is exact (stream AND serialized bytes, every
// request field), malformed numbers are rejected by key, the diurnal shape
// crowds its peaks, bursts concentrate arrivals, and the tenant mix
// respects its weights.
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <map>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "obs/report_diff.hpp"
#include "serve/batcher.hpp"
#include "serve/traffic.hpp"

namespace hprs::serve {
namespace {

void expect_traces_equal(const std::vector<sched::JobSpec>& a,
                         const std::vector<sched::JobSpec>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << "req " << i;
    EXPECT_EQ(a[i].algorithm, b[i].algorithm) << "req " << i;
    EXPECT_EQ(a[i].arrival_s, b[i].arrival_s) << "req " << i;
    EXPECT_EQ(a[i].ranks, b[i].ranks) << "req " << i;
    EXPECT_EQ(a[i].targets, b[i].targets) << "req " << i;
    EXPECT_EQ(a[i].classes, b[i].classes) << "req " << i;
    EXPECT_EQ(a[i].morph_iterations, b[i].morph_iterations) << "req " << i;
    EXPECT_EQ(a[i].kernel_radius, b[i].kernel_radius) << "req " << i;
    EXPECT_EQ(a[i].skewers, b[i].skewers) << "req " << i;
    EXPECT_EQ(a[i].seed, b[i].seed) << "req " << i;
    EXPECT_EQ(a[i].sad_threshold, b[i].sad_threshold) << "req " << i;
    EXPECT_EQ(a[i].replication, b[i].replication) << "req " << i;
    EXPECT_EQ(a[i].tenant, b[i].tenant) << "req " << i;
    EXPECT_EQ(a[i].batch_key, b[i].batch_key) << "req " << i;
  }
}

std::size_t count_in(const std::vector<sched::JobSpec>& trace, double lo,
                     double hi) {
  std::size_t n = 0;
  for (const sched::JobSpec& spec : trace) {
    if (spec.arrival_s >= lo && spec.arrival_s < hi) ++n;
  }
  return n;
}

/// Max request count over sliding windows of `width` seconds.
std::size_t max_window(const std::vector<sched::JobSpec>& trace,
                       double width) {
  std::size_t best = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    std::size_t n = 0;
    for (std::size_t j = i; j < trace.size(); ++j) {
      if (trace[j].arrival_s >= trace[i].arrival_s + width) break;
      ++n;
    }
    best = std::max(best, n);
  }
  return best;
}

TEST(ServeTrafficTest, SameSeedProducesIdenticalTrace) {
  for (const char* name : {"steady", "diurnal", "bursty", "tenant-mix"}) {
    TraceConfig config = preset_trace(name);
    config.jobs = 128;
    config.seed = 42;
    expect_traces_equal(generate_trace(config), generate_trace(config));
  }
}

TEST(ServeTrafficTest, DifferentSeedsDiverge) {
  TraceConfig config = preset_trace("steady");
  config.jobs = 64;
  config.seed = 1;
  const auto a = generate_trace(config);
  config.seed = 2;
  const auto b = generate_trace(config);
  ASSERT_EQ(a.size(), b.size());
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    any_diff = any_diff || a[i].arrival_s != b[i].arrival_s;
  }
  EXPECT_TRUE(any_diff);
}

TEST(ServeTrafficTest, TraceIsArrivalSortedWithSequentialIds) {
  TraceConfig config = preset_trace("bursty");
  config.jobs = 200;
  const auto trace = generate_trace(config);
  ASSERT_EQ(trace.size(), config.jobs);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i].id, i + 1);
    EXPECT_GE(trace[i].arrival_s, 0.0);
    EXPECT_LE(trace[i].arrival_s, config.duration_s);
    if (i > 0) {
      EXPECT_GE(trace[i].arrival_s, trace[i - 1].arrival_s);
    }
    EXPECT_GE(trace[i].ranks, 1);
    EXPECT_NE(trace[i].batch_key, 0u);
  }
}

TEST(ServeTrafficTest, JsonRoundTripIsExact) {
  TraceConfig config = preset_trace("tenant-mix");
  config.jobs = 96;
  config.seed = 9;
  const auto trace = generate_trace(config);
  const std::string json = trace_json(trace);
  const auto replayed = parse_trace_json(json);
  expect_traces_equal(trace, replayed);
  // Serializing the replay reproduces the document byte for byte.
  EXPECT_EQ(trace_json(replayed), json);
}

std::map<std::string, std::string> flat_of(const std::string& json) {
  std::map<std::string, std::string> flat;
  std::string error;
  EXPECT_TRUE(obs::parse_flat_json(json, flat, error)) << error;
  return flat;
}

TEST(ServeTrafficTest, TraceJsonRoundTripsEveryRequestField) {
  sched::JobSpec spec;
  spec.id = 7;
  spec.arrival_s = 1.25;
  spec.ranks = 3;
  // Control bytes travel as \u00XX escapes and must decode back.
  spec.tenant = "night\rshift\x01";
  spec.batch_key = 99;
  spec.algorithm = core::Algorithm::kMorph;
  spec.targets = 5;
  spec.classes = 3;
  spec.morph_iterations = 4;
  spec.kernel_radius = 3;
  spec.skewers = 77;
  spec.seed = 42;
  spec.sad_threshold = 0.125;
  spec.replication = 3;
  spec.memory_fraction = 0.25;
  spec.policy = core::PartitionPolicy::kHomogeneous;
  spec.charge_data_staging = true;
  const std::string json = trace_json({spec});

  // Every field of the request's field list is off its default here, so a
  // field the writer or the reader drops cannot pass unnoticed.
  const auto ours = flat_of(json);
  const auto defaults = flat_of(trace_json({sched::JobSpec{}}));
  core::for_each_field(spec, [&](const char* name, const auto&) {
    const std::string key = std::string("req.000000.") + name;
    ASSERT_EQ(ours.count(key), 1u) << key;
    EXPECT_NE(ours.at(key), defaults.at(key)) << key;
  });

  const auto replayed = parse_trace_json(json);
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_TRUE(sched::compute_equivalent(spec, replayed[0]));
  expect_traces_equal({spec}, replayed);
  EXPECT_EQ(trace_json(replayed), json);
}

/// trace_json of a one-request trace with the token at `key` replaced.
std::string with_token(const std::string& key, const std::string& token) {
  auto flat = flat_of(trace_json({sched::JobSpec{}}));
  flat[key] = token;
  std::string json = "{";
  for (const auto& [k, v] : flat) {
    json += (json.size() > 1 ? ",\n\"" : "\n\"") + k + "\": " + v;
  }
  return json + "\n}\n";
}

void expect_rejected_by_key(const std::string& key, const std::string& token) {
  try {
    (void)parse_trace_json(with_token(key, token));
    ADD_FAILURE() << key << " = " << token << " was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
        << key << " = " << token << ": " << e.what();
  }
}

TEST(ServeTrafficTest, TraceJsonRejectsMalformedNumbersByKey) {
  // Signs, strings, fractions and values past the field's range.
  expect_rejected_by_key("req.000000.targets", "-3");
  expect_rejected_by_key("req.000000.targets", "\"x\"");
  expect_rejected_by_key("req.000000.targets", "18446744073709551616");
  expect_rejected_by_key("req.000000.seed", "1.5");
  expect_rejected_by_key("req.000000.seed", "1e3");
  expect_rejected_by_key("req.000000.ranks", "4294967297");
  expect_rejected_by_key("req.000000.ranks", "2147483648");
  expect_rejected_by_key("req.000000.policy", "2");
  expect_rejected_by_key("req.000000.charge_data_staging", "2");
  expect_rejected_by_key("req.000000.algorithm", "\"FOO\"");
  // Numbers must be finite.
  expect_rejected_by_key("req.000000.sad_threshold", "nan");
  expect_rejected_by_key("req.000000.memory_fraction", "1e999");
  expect_rejected_by_key("req.000000.arrival_s", "inf");
  expect_rejected_by_key("req.000000.arrival_s", "0.5x");
  // A request count the document cannot hold.
  expect_rejected_by_key("trace.jobs", "18446744073709551615");
  expect_rejected_by_key("trace.jobs", "1000");

  // The bounds themselves are accepted.
  const auto widest = parse_trace_json(
      with_token("req.000000.ranks", std::to_string(INT_MAX)));
  ASSERT_EQ(widest.size(), 1u);
  EXPECT_EQ(widest[0].ranks, INT_MAX);
  const auto homogeneous =
      parse_trace_json(with_token("req.000000.policy", "0"));
  EXPECT_EQ(homogeneous[0].policy, core::PartitionPolicy::kHomogeneous);
}

TEST(ServeTrafficTest, ParseRejectsMalformedDocuments) {
  EXPECT_THROW(parse_trace_json("not json"), Error);
  // A truncated document (claims one request, carries none) must throw,
  // not silently replay short.
  EXPECT_THROW(parse_trace_json("{\n  \"trace.jobs\": 1\n}\n"), Error);
  EXPECT_THROW((void)parse_traffic_shape("nope"), Error);
  // A string with a \u escape that is not four hex digits.
  expect_rejected_by_key("req.000000.tenant", "\"\\uZZZZ\"");
  expect_rejected_by_key("req.000000.tenant", "\"a\\u00\"");
}

TEST(ServeTrafficTest, DiurnalArrivalsCrowdThePeaks) {
  TraceConfig config = preset_trace("diurnal");
  config.jobs = 600;
  config.duration_s = 1000.0;
  config.diurnal_amplitude = 0.9;
  config.diurnal_cycles = 1.0;
  const auto trace = generate_trace(config);
  // rate(t) = 1 + 0.9 cos(2 pi t / T): peak bands at both ends (rate ~1.9),
  // trough around T/2 (rate ~0.1).  Equal-width bands must reflect that.
  const double T = config.duration_s;
  const std::size_t peak =
      count_in(trace, 0.0, 0.1 * T) + count_in(trace, 0.9 * T, T + 1.0);
  const std::size_t trough = count_in(trace, 0.4 * T, 0.6 * T);
  EXPECT_GT(peak, 2 * trough);
}

TEST(ServeTrafficTest, BurstyArrivalsConcentrate) {
  TraceConfig steady = preset_trace("steady");
  steady.jobs = 400;
  steady.duration_s = 1000.0;
  TraceConfig bursty = steady;
  bursty.shape = TrafficShape::kBursty;
  bursty.burst_fraction = 0.8;
  bursty.bursts = 3;
  bursty.burst_width_s = 5.0;
  // A flash crowd packs far more of the stream into its densest minute
  // than homogeneous load ever does.
  EXPECT_GE(max_window(generate_trace(bursty), 50.0),
            2 * max_window(generate_trace(steady), 50.0));
}

TEST(ServeTrafficTest, TenantMixRespectsWeightsAndSceneKeys) {
  TraceConfig config = preset_trace("tenant-mix");
  config.jobs = 600;
  const auto trace = generate_trace(config);
  std::map<std::string, std::size_t> counts;
  std::map<std::string, std::map<std::uint64_t, std::size_t>> keys;
  for (const sched::JobSpec& spec : trace) {
    ++counts[spec.tenant];
    ++keys[spec.tenant][spec.batch_key];
  }
  ASSERT_EQ(counts.size(), 3u);
  // Weights 3 : 2 : 1 must show in the request shares.
  EXPECT_GT(counts["survey"], counts["tasking"]);
  EXPECT_GT(counts["tasking"], counts["adhoc"]);
  // The survey tenant asks one question of one scene: a single shared
  // batch key (the batchable case); distinct tenants never share keys.
  EXPECT_EQ(keys["survey"].size(), 1u);
  for (const auto& [key, n] : keys["survey"]) {
    EXPECT_EQ(keys["tasking"].count(key), 0u);
    EXPECT_EQ(keys["adhoc"].count(key), 0u);
  }
}

TEST(ServeTrafficTest, RequestsAreStampedFromTheTenantSpec) {
  TraceConfig config;
  config.jobs = 6;
  TenantProfile tenant;
  tenant.algorithm = core::Algorithm::kPct;
  tenant.classes = 3;
  config.tenants = {tenant};
  for (const sched::JobSpec& spec : generate_trace(config)) {
    EXPECT_EQ(static_cast<const core::AlgorithmSpec&>(spec),
              static_cast<const core::AlgorithmSpec&>(tenant));
  }
  // A tenant listing algorithms cycles through them instead.
  config.tenants[0].algorithms = {core::Algorithm::kMorph,
                                  core::Algorithm::kPpi};
  const auto trace = generate_trace(config);
  for (std::size_t k = 0; k < trace.size(); ++k) {
    EXPECT_EQ(trace[k].algorithm, k % 2 == 0 ? core::Algorithm::kMorph
                                             : core::Algorithm::kPpi);
  }
}

TEST(ServeTrafficTest, BatchKeyExcludesPlacementFields) {
  sched::JobSpec a;
  a.algorithm = core::Algorithm::kPct;
  sched::JobSpec b = a;
  b.id = 99;
  b.arrival_s = 123.0;
  b.ranks = 7;
  b.tenant = "other";
  EXPECT_EQ(batch_key(a, 5), batch_key(b, 5));
  EXPECT_NE(batch_key(a, 5), batch_key(a, 6));
  b.targets = a.targets + 1;
  EXPECT_NE(batch_key(a, 5), batch_key(b, 5));
}

}  // namespace
}  // namespace hprs::serve
