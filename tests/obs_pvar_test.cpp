// Pvar / snapshot counter-plane unit suite: PvarSet ordering and classes,
// cadence determinism, timeline sequencing and canonical order, the
// JSON/CSV export goldens, the flat-JSON round trip, and the property the
// timeline gate exists for -- a counter that drifts mid-run and recovers by
// the end is caught and localized by diff_timelines even though the
// end-of-run states compare equal.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "obs/pvar.hpp"
#include "obs/report_diff.hpp"
#include "obs/run_summary.hpp"
#include "obs/snapshot.hpp"

namespace hprs::obs {
namespace {

TEST(PvarSetTest, SortsByNameRegardlessOfInsertionOrder) {
  PvarSet a;
  a.counter("zeta", 3);
  a.level("alpha", 1.5);
  a.timer("mid", 0.25, 4);

  PvarSet b;
  b.timer("mid", 0.25, 4);
  b.counter("zeta", 3);
  b.level("alpha", 1.5);

  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a.sorted()[0].name, "alpha");
  EXPECT_EQ(a.sorted()[1].name, "mid");
  EXPECT_EQ(a.sorted()[2].name, "zeta");
  EXPECT_EQ(a, b);
}

TEST(PvarSetTest, ClassesAndDomains) {
  PvarSet set;
  set.counter("c", 42);
  set.counter("c.host", 7, Domain::kHost);
  set.level("q", 3.0);
  set.timer("t", 1.25, 9);

  const auto& vars = set.sorted();
  ASSERT_EQ(vars.size(), 4u);
  EXPECT_EQ(vars[0].cls, PvarClass::kCounter);
  EXPECT_EQ(vars[0].domain, Domain::kStable);
  EXPECT_EQ(vars[0].count, 42u);
  EXPECT_EQ(vars[1].domain, Domain::kHost);
  EXPECT_EQ(vars[2].cls, PvarClass::kLevel);
  EXPECT_EQ(vars[2].value, 3.0);
  // Timers always describe host time.
  EXPECT_EQ(vars[3].cls, PvarClass::kTimer);
  EXPECT_EQ(vars[3].domain, Domain::kHost);
  EXPECT_EQ(vars[3].count, 9u);
  EXPECT_EQ(vars[3].value, 1.25);

  EXPECT_STREQ(to_string(PvarClass::kCounter), "counter");
  EXPECT_STREQ(to_string(PvarClass::kLevel), "level");
  EXPECT_STREQ(to_string(PvarClass::kTimer), "timer");
}

TEST(SnapshotCadenceTest, DeterministicPerSeedAndScope) {
  SnapshotCadence a(0.05, kDefaultSnapshotSeed, 17);
  SnapshotCadence b(0.05, kDefaultSnapshotSeed, 17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.due_s(), b.due_s()) << "step " << i;
    const double now = a.due_s();
    a.advance_past(now);
    b.advance_past(now);
  }
}

TEST(SnapshotCadenceTest, JitteredGapsStayWithinBand) {
  SnapshotCadence cadence(0.05, kDefaultSnapshotSeed, 3);
  double prev = 0.0;
  for (int i = 0; i < 200; ++i) {
    const double due = cadence.due_s();
    const double gap = due - prev;
    EXPECT_GE(gap, 0.05 * 0.75 - 1e-12);
    EXPECT_LT(gap, 0.05 * 1.25 + 1e-12);
    prev = due;
    cadence.advance_past(due);
  }
}

TEST(SnapshotCadenceTest, ScopesDecorrelate) {
  SnapshotCadence a(0.05, kDefaultSnapshotSeed, 1);
  SnapshotCadence b(0.05, kDefaultSnapshotSeed, 2);
  EXPECT_NE(a.due_s(), b.due_s());
}

TEST(SnapshotCadenceTest, LongGapSkipsInsteadOfBursting) {
  SnapshotCadence cadence(0.05, kDefaultSnapshotSeed, 5);
  cadence.advance_past(10.0);
  EXPECT_GT(cadence.due_s(), 10.0);
  EXPECT_LT(cadence.due_s(), 10.0 + 0.05 * 1.25);
}

PvarSet one_counter(std::uint64_t n) {
  PvarSet set;
  set.counter("c", n);
  return set;
}

TEST(SnapshotTimelineTest, PerScopeSequencingAndFinalizeOrder) {
  SnapshotTimeline timeline;
  EXPECT_EQ(timeline.append("a", 0.5, one_counter(1)), 0);
  EXPECT_EQ(timeline.append("b", 0.25, one_counter(2)), 0);
  EXPECT_EQ(timeline.append("a", 0.5, one_counter(3)), 1);
  timeline.finalize();

  ASSERT_EQ(timeline.size(), 3u);
  EXPECT_EQ(timeline.samples()[0].scope, "b");
  EXPECT_EQ(timeline.samples()[1].scope, "a");
  EXPECT_EQ(timeline.samples()[1].seq, 0);
  EXPECT_EQ(timeline.samples()[2].scope, "a");
  EXPECT_EQ(timeline.samples()[2].seq, 1);
}

TEST(SnapshotTimelineTest, ScopeLabelsAreSanitized) {
  SnapshotTimeline timeline;
  timeline.append("job |1,\"x\"", 0.0, one_counter(1));
  EXPECT_EQ(timeline.samples()[0].scope, "job__1__x_");
}

SnapshotTimeline golden_timeline() {
  SnapshotTimeline timeline;
  PvarSet a;
  a.counter("c", 7);
  a.level("q", 2.0);
  a.timer("t", 0.25, 3);
  timeline.append("a", 0.5, a);
  timeline.append("b", 0.25, one_counter(1));
  timeline.finalize();
  return timeline;
}

TEST(SnapshotTimelineTest, JsonExportMatchesGolden) {
  // Character-exact: this string is the committed contract the bench-smoke
  // counter-plane gate relies on (counters are bare integers, levels carry
  // a decimal marker, host timers get the ".host" routing suffix).
  const std::string expected =
      "{\n"
      "  \"_timeline.samples\": 2,\n"
      "  \"_timeline.scopes\": 2,\n"
      "  \"a|000000|c\": 7,\n"
      "  \"a|000000|q\": 2.0,\n"
      "  \"a|000000|t.host\": 0.25,\n"
      "  \"a|000000|t_s\": 0.5,\n"
      "  \"b|000000|c\": 1,\n"
      "  \"b|000000|t_s\": 0.25\n"
      "}\n";
  EXPECT_EQ(snapshot_timeline_json(golden_timeline()), expected);
}

TEST(SnapshotTimelineTest, CsvExportMatchesGolden) {
  const std::string expected =
      "scope,seq,t_s,name,class,domain,count,value\n"
      "b,0,0.25,c,counter,stable,1,0.0\n"
      "a,0,0.5,c,counter,stable,7,0.0\n"
      "a,0,0.5,q,level,stable,0,2.0\n"
      "a,0,0.5,t.host,timer,host,3,0.25\n";
  EXPECT_EQ(snapshot_timeline_csv(golden_timeline()), expected);
}

TEST(SnapshotTimelineTest, FlatJsonRoundTripsThroughParser) {
  const SnapshotTimeline original = golden_timeline();
  std::map<std::string, std::string> parsed;
  std::string error;
  ASSERT_TRUE(parse_flat_json(snapshot_timeline_json(original), parsed, error))
      << error;

  SnapshotTimeline rebuilt;
  ASSERT_TRUE(timeline_from_flat(parsed, rebuilt, error)) << error;
  ASSERT_EQ(rebuilt.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(rebuilt.samples()[i].scope, original.samples()[i].scope);
    EXPECT_EQ(rebuilt.samples()[i].seq, original.samples()[i].seq);
    EXPECT_EQ(rebuilt.samples()[i].t_s, original.samples()[i].t_s);
    // Token-shape class recovery: the counter comes back as a counter.
    const auto& vars = rebuilt.samples()[i].pvars.sorted();
    for (const auto& var : vars) {
      if (var.name == "c") {
        EXPECT_EQ(var.cls, PvarClass::kCounter);
        EXPECT_EQ(var.count, original.samples()[i].pvars.sorted()[0].count);
      }
    }
  }
}

TEST(TimelineDiffTest, RejectsNonTimelineKeys) {
  std::map<std::string, std::string> flat{{"engine.flops", "11"}};
  SnapshotTimeline timeline;
  std::string error;
  EXPECT_FALSE(timeline_from_flat(flat, timeline, error));
  EXPECT_NE(error.find("engine.flops"), std::string::npos);
}

/// Three samples of one monotonically growing counter.  The drifted twin
/// disagrees only at the middle sample -- by the last sample both runs
/// have counted 10, which is exactly the drift an end-of-run comparison
/// cannot see.
std::map<std::string, std::string> series(std::uint64_t mid) {
  SnapshotTimeline timeline;
  timeline.append("job", 0.1, one_counter(3));
  timeline.append("job", 0.2, one_counter(mid));
  timeline.append("job", 0.3, one_counter(10));
  timeline.finalize();
  return snapshot_timeline_flat(timeline);
}

TEST(TimelineDiffTest, CatchesMidRunDriftThatEndStateComparisonMisses) {
  const auto golden = series(5);
  const auto drifted = series(6);

  // End-of-run comparison: the final samples agree, so a gate that only
  // checks end state passes the drifted run.
  EXPECT_EQ(golden.at("job|000002|c"), drifted.at("job|000002|c"));

  const auto result = diff_timelines(golden, drifted);
  EXPECT_FALSE(result.ok());
  ASSERT_EQ(result.diff.mismatches.size(), 1u);
  EXPECT_EQ(result.diff.mismatches[0].key, "job|000001|c");
  // The divergence is localized in virtual time and scope.
  EXPECT_NE(result.first_divergence.find("t=0.2"), std::string::npos)
      << result.first_divergence;
  EXPECT_NE(result.first_divergence.find("\"job\""), std::string::npos);
  EXPECT_NE(result.first_divergence.find("sample 1"), std::string::npos);
  EXPECT_NE(result.first_divergence.find("golden 5"), std::string::npos);
  EXPECT_NE(result.first_divergence.find("actual 6"), std::string::npos);
}

TEST(TimelineDiffTest, IdenticalTimelinesCompareOk) {
  const auto result = diff_timelines(series(5), series(5));
  EXPECT_TRUE(result.ok());
  EXPECT_TRUE(result.first_divergence.empty());
}

TEST(TimelineDiffTest, HostSeriesComparedByThreshold) {
  SnapshotTimeline a;
  SnapshotTimeline b;
  PvarSet pa;
  pa.timer("solve", 1.00, 3);
  PvarSet pb;
  pb.timer("solve", 1.05, 3);
  a.append("job", 0.1, pa);
  b.append("job", 0.1, pb);
  a.finalize();
  b.finalize();
  // 5% wall-clock wobble on a host timer is within DiffOptions' default
  // host tolerance; the same wobble on a stable level would fail.
  EXPECT_TRUE(
      diff_timelines(snapshot_timeline_flat(a), snapshot_timeline_flat(b))
          .ok());
}

}  // namespace
}  // namespace hprs::obs
