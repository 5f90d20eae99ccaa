// The run-summary pipeline (obs/run_summary.hpp + obs/report_diff.hpp):
//
//  * serialization -- RunSummary::to_json is a stable, sorted, flat JSON
//    object whose tokens round-trip exactly through parse_flat_json;
//  * population -- add_run_report and add_metrics emit the documented keys
//    (recovery block only when non-trivial, host metrics only on request);
//  * the gate -- diff_summaries accepts identical documents, rejects any
//    stable-token change and any missing/extra key, compares "host"-named
//    keys by threshold instead of identity, and never compares the
//    "_metadata." keys.
#include "obs/report_diff.hpp"
#include "obs/run_summary.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "obs/metrics.hpp"
#include "vmpi/stats.hpp"

namespace hprs::obs {
namespace {

using Entries = std::map<std::string, std::string>;

TEST(RunSummaryTest, ToJsonIsSortedStableAndEscaped) {
  RunSummary s;
  s.set_number("b.pi", 3.5);
  s.set_count("a.count", 42);
  s.set_bool("c.flag", true);
  s.set_string("d.name", "say \"hi\"\n");
  EXPECT_EQ(s.to_json(),
            "{\n"
            "  \"a.count\": 42,\n"
            "  \"b.pi\": 3.5,\n"
            "  \"c.flag\": true,\n"
            "  \"d.name\": \"say \\\"hi\\\"\\n\"\n"
            "}\n");
}

TEST(RunSummaryTest, DoublesRoundTripThroughTheTokenFormat) {
  RunSummary s;
  const double awkward = 0.1 + 0.2;  // not representable as a short decimal
  s.set_number("x", awkward);
  Entries parsed;
  std::string error;
  ASSERT_TRUE(parse_flat_json(s.to_json(), parsed, error)) << error;
  EXPECT_EQ(std::stod(parsed.at("x")), awkward);  // %.17g round-trips
}

TEST(ParseFlatJsonTest, ParsesItsOwnWriterAndRejectsMalformedInput) {
  RunSummary s;
  s.set_count("k1", 1);
  s.set_string("k2", "v");
  s.set_string("k3", "night\rshift\x01\"\\");
  Entries parsed;
  std::string error;
  ASSERT_TRUE(parse_flat_json(s.to_json(), parsed, error)) << error;
  EXPECT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed.at("k1"), "1");
  EXPECT_EQ(parsed.at("k2"), "\"v\"");
  std::string decoded;
  ASSERT_TRUE(decode_string_token(parsed.at("k3"), decoded, error)) << error;
  EXPECT_EQ(decoded, "night\rshift\x01\"\\");
  EXPECT_FALSE(decode_string_token(parsed.at("k1"), decoded, error));

  for (const char* bad : {"", "[1, 2]", "{\"a\" 1}", "{\"a\": }",
                          "{\"a\": 1, \"a\": 2}", "{\"a\": 1", "not json"}) {
    Entries out;
    std::string err;
    EXPECT_FALSE(parse_flat_json(bad, out, err)) << bad;
    EXPECT_FALSE(err.empty()) << bad;
  }
  // A \u escape takes exactly four hex digits of an ASCII code point, and
  // an escape in a value is reported under its key.
  for (const char* bad : {"{\"a\": \"\\uZZZZ\"}", "{\"a\": \"\\u12\"}",
                          "{\"a\": \"\\u00e9\"}", "{\"a\": \"\\q\"}"}) {
    Entries out;
    std::string err;
    EXPECT_FALSE(parse_flat_json(bad, out, err)) << bad;
    EXPECT_NE(err.find("key \"a\""), std::string::npos) << bad << ": " << err;
  }
}

vmpi::RunReport sample_report() {
  vmpi::RunReport report;
  report.total_time = 2.0;
  report.ranks.resize(2);
  report.ranks[0].comm = 0.5;
  report.ranks[0].compute_seq = 0.25;
  report.ranks[0].compute_par = 0.75;
  report.ranks[1].compute_par = 1.5;
  report.ranks[0].flops = 100;
  report.ranks[1].flops = 300;
  report.ranks[0].bytes_sent = 64;
  report.ranks[1].bytes_received = 64;
  return report;
}

TEST(AddRunReportTest, EmitsTheDeterministicCore) {
  RunSummary s;
  add_run_report(s, "run", sample_report());
  const auto& e = s.entries();
  EXPECT_EQ(e.at("run.total_s"), "2");
  EXPECT_EQ(e.at("run.com_s"), "0.5");
  EXPECT_EQ(e.at("run.seq_s"), "0.25");
  EXPECT_EQ(e.at("run.par_s"), "1.25");
  EXPECT_EQ(e.at("run.flops"), "400");
  EXPECT_EQ(e.at("run.bytes_moved"), "64");  // counts each transfer once
  EXPECT_EQ(e.at("run.ranks"), "2");
  EXPECT_EQ(e.at("run.fault_events"), "0");
  // Fault-free: no recovery block.
  EXPECT_EQ(e.count("run.recovery.crashes"), 0u);
}

TEST(AddRunReportTest, RecoveryBlockAppearsOnlyWhenNonTrivial) {
  auto report = sample_report();
  report.recovery.crashes = 1;
  report.recovery.detections = 2;
  report.recovery.detection_s = 0.125;
  report.recovery.recomputed_flops = 77;
  RunSummary s;
  add_run_report(s, "run", report);
  const auto& e = s.entries();
  EXPECT_EQ(e.at("run.recovery.crashes"), "1");
  EXPECT_EQ(e.at("run.recovery.detections"), "2");
  EXPECT_EQ(e.at("run.recovery.detection_s"), "0.125");
  EXPECT_EQ(e.at("run.recovery.recomputed_flops"), "77");
}

TEST(AddMetricsTest, StableByDefaultHostOnRequest) {
  const ScopedMetrics scoped;
  auto& m = Metrics::instance();
  m.add("stable.count", 9);
  m.gauge_max("stable.gauge", 4.0);
  m.add("host.count", 3, Domain::kHost);
  m.gauge_max("host.gauge", 2.0, Domain::kHost);
  m.time_add("section", 1.5);
  const auto snap = m.snapshot();

  RunSummary stable_only;
  add_metrics(stable_only, "p", snap);
  EXPECT_EQ(stable_only.entries().size(), 2u);
  EXPECT_EQ(stable_only.entries().at("p.metrics.stable.count"), "9");
  EXPECT_EQ(stable_only.entries().at("p.metrics.stable.gauge"), "4");

  RunSummary with_host;
  add_metrics(with_host, "p", snap, /*include_host=*/true);
  const auto& e = with_host.entries();
  EXPECT_EQ(e.size(), 5u);
  EXPECT_EQ(e.at("p.metrics.host.count.host_count"), "3");
  EXPECT_EQ(e.at("p.metrics.host.gauge.host_level"), "2");
  EXPECT_EQ(e.at("p.metrics.section.host_s"), "1.5");
}

// --- The gate -------------------------------------------------------------

TEST(ReportDiffTest, IdenticalSummariesPass) {
  const Entries doc = {{"a", "1"}, {"b", "2.5"}, {"c.host_s", "10"}};
  const auto result = diff_summaries(doc, doc);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.keys_compared, 3u);
}

TEST(ReportDiffTest, StableTokensRequireExactIdentity) {
  const Entries golden = {{"a", "1"}};
  // Numerically equal, textually different: still a failure -- stable
  // comparison is on raw tokens, never parsed values.
  const auto result = diff_summaries(golden, {{"a", "1.0"}});
  ASSERT_EQ(result.mismatches.size(), 1u);
  EXPECT_EQ(result.mismatches[0].key, "a");
}

TEST(ReportDiffTest, MissingAndExtraKeysAlwaysFail) {
  const Entries golden = {{"a", "1"}, {"b", "2"}};
  const Entries actual = {{"b", "2"}, {"c", "3"}};
  const auto result = diff_summaries(golden, actual);
  ASSERT_EQ(result.mismatches.size(), 2u);
  EXPECT_EQ(result.mismatches[0].key, "a");
  EXPECT_EQ(result.mismatches[0].actual, "<missing>");
  EXPECT_EQ(result.mismatches[1].key, "c");
  EXPECT_EQ(result.mismatches[1].golden, "<missing>");
}

TEST(ReportDiffTest, MetadataKeysAreNeverCompared) {
  const Entries golden = {{"_metadata.hw_threads", "1"}, {"a", "1"}};
  // Missing on either side, or different: the recording conditions of a
  // summary are not part of its result.
  EXPECT_TRUE(diff_summaries(golden, {{"a", "1"}}).ok());
  EXPECT_TRUE(diff_summaries({{"a", "1"}}, golden).ok());
  const auto other = diff_summaries(
      golden, {{"_metadata.hw_threads", "4"},
               {"_metadata.kernel_threads", "4"},
               {"a", "1"}});
  EXPECT_TRUE(other.ok());
  EXPECT_EQ(other.keys_compared, 1u);

  // Only the "_metadata." prefix is exempt: every other key that is
  // missing or differs still fails.
  const auto bad = diff_summaries(
      golden, {{"_metadata", "4"}, {"a._metadata.x", "1"}, {"a", "2"}});
  ASSERT_EQ(bad.mismatches.size(), 3u);
  EXPECT_EQ(bad.mismatches[0].key, "a");
  EXPECT_EQ(bad.mismatches[1].key, "_metadata");
  EXPECT_EQ(bad.mismatches[2].key, "a._metadata.x");
}

TEST(ReportDiffTest, HostKeysCompareByThreshold) {
  const Entries golden = {{"bench.host_s", "10"}};
  // Within the default 10x relative window: passes despite the different
  // token.
  EXPECT_TRUE(diff_summaries(golden, {{"bench.host_s", "99"}}).ok());
  EXPECT_TRUE(diff_summaries(golden, {{"bench.host_s", "1.1"}}).ok());
  // An order-of-magnitude-plus collapse fails both tolerances.
  EXPECT_FALSE(diff_summaries(golden, {{"bench.host_s", "200"}}).ok());

  // Small absolute differences pass even when the ratio is huge.
  const Entries near_zero = {{"startup.host_s", "0.001"}};
  EXPECT_TRUE(diff_summaries(near_zero, {{"startup.host_s", "4.9"}}).ok());
  EXPECT_FALSE(diff_summaries(near_zero, {{"startup.host_s", "60"}}).ok());

  // Tolerances are adjustable.
  DiffOptions tight;
  tight.host_rel_tol = 1.5;
  tight.host_abs_tol = 0.0;
  EXPECT_FALSE(diff_summaries(golden, {{"bench.host_s", "99"}}, tight).ok());
  EXPECT_TRUE(diff_summaries(golden, {{"bench.host_s", "12"}}, tight).ok());
}

TEST(ReportDiffTest, HostKeyDetectionIsSubstringBased) {
  EXPECT_TRUE(is_host_time_key("bench.metrics.vmpi.host.wakeups.host_count"));
  EXPECT_TRUE(is_host_time_key("table8.ATDCA.p64.host_s"));
  EXPECT_FALSE(is_host_time_key("table8.ATDCA.p64.virtual_s"));
  EXPECT_FALSE(is_host_time_key("run.total_s"));
}

}  // namespace
}  // namespace hprs::obs
