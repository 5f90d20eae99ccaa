// Self-tests of the benchmark's C++ side: outcome classification and
// failure accounting, the reference round trip, and every workload running
// clean at the tiny scale.
#include <gtest/gtest.h>

#include <algorithm>

#include "harness.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using hprs::sched::JobRecord;
using hprs::sched::JobState;

Result run(const Inputs& inputs, const RunSettings& settings) {
  Result result = run_workload(inputs, settings, nullptr);
  digest_result(inputs, result);
  return result;
}

RunSettings oracle_settings() {
  RunSettings settings;
  settings.thread_per_rank = true;
  return settings;
}

JobRecord record_in(JobState state, bool finished) {
  JobRecord record;
  record.state = state;
  record.arrival_s = 1.0;
  if (finished) {
    record.dispatch_s = 1.5;
    record.finish_s = 2.0;
  }
  return record;
}

TEST(PerfbenchOutcome, EveryTerminalStateMapsToOneOutcome) {
  EXPECT_EQ(classify(record_in(JobState::kCompleted, true), true),
            Outcome::kOk);
  EXPECT_EQ(classify(record_in(JobState::kCompleted, true), false),
            Outcome::kWrong);
  EXPECT_EQ(classify(record_in(JobState::kRejected, false), true),
            Outcome::kRefused);
  EXPECT_EQ(classify(record_in(JobState::kFailed, false), true),
            Outcome::kFailed);
  EXPECT_EQ(classify(record_in(JobState::kDegraded, false), true),
            Outcome::kDegraded);
  // A request still pending when the program threw was aborted.
  EXPECT_EQ(classify(record_in(JobState::kPending, false), true),
            Outcome::kAborted);
  EXPECT_EQ(classify(record_in(JobState::kCompleted, false), true),
            Outcome::kAborted);
}

TEST(PerfbenchOutcome, FailedShareCountsEveryFailureKind) {
  FailureTally tally;
  for (const JobState state : {JobState::kRejected, JobState::kFailed,
                               JobState::kDegraded, JobState::kPending}) {
    tally.add(classify(record_in(state, false), true));
  }
  tally.add(classify(record_in(JobState::kCompleted, true), false));
  for (int i = 0; i < 5; ++i) {
    tally.add(classify(record_in(JobState::kCompleted, true), true));
  }
  EXPECT_EQ(tally.attempted, 10u);
  EXPECT_EQ(tally.refused, 1u);
  EXPECT_EQ(tally.failed, 1u);
  EXPECT_EQ(tally.degraded, 1u);
  EXPECT_EQ(tally.aborted, 1u);
  EXPECT_EQ(tally.wrong, 1u);
  EXPECT_EQ(tally.failures(), 5u);
}

TEST(PerfbenchOutcome, ThrowingProgramAbortsEveryRequest) {
  Inputs inputs =
      make_inputs(Workload::kResilientBurst, 7, Scale::kTiny, nullptr);
  inputs.trace[1].id = inputs.trace[0].id;  // run_schedule rejects duplicates
  const Result result = run(inputs, RunSettings{});
  EXPECT_FALSE(result.error.empty());
  FailureTally tally;
  for (const Item& item : result.items) tally.add(item.outcome);
  EXPECT_EQ(tally.attempted, inputs.trace.size());
  EXPECT_EQ(tally.aborted, inputs.trace.size());
}

TEST(PerfbenchReference, RoundTripsAndFlagsEveryMismatch) {
  const Inputs inputs =
      make_inputs(Workload::kServeDiurnal, 3, Scale::kTiny, nullptr);
  const Result reference_run = run(inputs, oracle_settings());
  const std::optional<Reference> reference =
      parse_reference(format_reference(reference_run));
  ASSERT_TRUE(reference.has_value());

  Result result = run(inputs, RunSettings{});
  EXPECT_EQ(compare_with_reference(*reference, result), 0u);

  result.items[2].output ^= 1;
  result.items[5].record ^= 1;
  EXPECT_EQ(compare_with_reference(*reference, result), 2u);
  EXPECT_EQ(result.items[2].outcome, Outcome::kWrong);
  EXPECT_EQ(result.items[5].outcome, Outcome::kWrong);

  Result shifted = run(inputs, RunSettings{});
  shifted.virtual_makespan_s += 1.0;
  EXPECT_EQ(compare_with_reference(*reference, shifted),
            shifted.items.size());
  EXPECT_FALSE(parse_reference("makespan 0x1p+0\nitem 1 zz\n").has_value());
}

TEST(PerfbenchReference, RiderWithAForeignOutputIsWrong) {
  // This tiny trace batches one PCT request onto another's gang.
  const Inputs inputs = make_inputs(Workload::kServeDiurnal, input_seed(2, 0),
                                    Scale::kTiny, nullptr);
  Result result = run(inputs, RunSettings{});
  EXPECT_EQ(check_invariants(inputs, result), 0u);
  auto& records = result.service.schedule.records;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].batched_into == 0) continue;
    result.service.schedule.outputs[i].label_count += 1;
    EXPECT_EQ(check_invariants(inputs, result), 1u);
    EXPECT_EQ(result.items[i].outcome, Outcome::kWrong);
    return;
  }
  ADD_FAILURE() << "the tiny trace produced no rider";
}

class PerfbenchWorkload : public ::testing::TestWithParam<Workload> {};

TEST_P(PerfbenchWorkload, RunsCleanAndMatchesItsOracle) {
  const Workload workload = GetParam();
  const Inputs inputs = make_inputs(workload, 11, Scale::kTiny, nullptr);
  const Result reference_run = run(inputs, oracle_settings());
  const std::optional<Reference> reference =
      parse_reference(format_reference(reference_run));
  ASSERT_TRUE(reference.has_value());

  Result result = run(inputs, RunSettings{});
  EXPECT_EQ(result.error, "");
  EXPECT_EQ(check_invariants(inputs, result), 0u);
  EXPECT_EQ(compare_with_reference(*reference, result), 0u);
  FailureTally tally;
  for (const Item& item : result.items) tally.add(item.outcome);
  EXPECT_GT(tally.attempted, 0u);
  EXPECT_EQ(tally.failures(), 0u);
  EXPECT_GT(result.virtual_makespan_s, 0.0);
  if (workload == Workload::kTable8P256) {
    EXPECT_TRUE(result.response_s.empty());
  } else {
    EXPECT_EQ(result.response_s.size(), inputs.trace.size());
  }

  // The traced path adds the per-layer metrics every workload reports.
  SpanRecorder spans;
  const std::map<std::string, double> layers =
      layer_metrics(inputs, result, RunSettings{}, spans);
  for (const char* name :
       {"hsi.scene_gen_s", "core.flops", "linalg.eigen_ms",
        "linalg.eigen_calls", "linalg.eigen_sweeps", "vmpi.collectives",
        "vmpi.p2p_messages", "vmpi.wire_bytes", "vmpi.parks", "vmpi.wakeups",
        "vmpi.host_us_per_op"}) {
    EXPECT_EQ(layers.count(name), 1u) << name;
  }
  EXPECT_EQ(layers.count("sched.gangs"),
            workload == Workload::kTable8P256 ? 0u : 1u);
  EXPECT_EQ(layers.count("core.numerics_s"),
            workload == Workload::kTable8P256 ? 1u : 0u);
}

INSTANTIATE_TEST_SUITE_P(All, PerfbenchWorkload,
                         ::testing::ValuesIn(all_workloads()),
                         [](const auto& param_info) {
                           return std::string(to_string(param_info.param));
                         });

TEST(PerfbenchInputs, SeedNamesTheInputs) {
  EXPECT_EQ(input_seed(5, 0), input_seed(5, 0));
  EXPECT_NE(input_seed(5, 0), input_seed(5, 1));
  EXPECT_NE(input_seed(5, 0), input_seed(6, 0));
  const Inputs a = make_inputs(Workload::kServeDiurnal, 9, Scale::kTiny,
                               nullptr);
  const Inputs b = make_inputs(Workload::kServeDiurnal, 9, Scale::kTiny,
                               nullptr);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].arrival_s, b.trace[i].arrival_s);
    EXPECT_EQ(a.trace[i].algorithm, b.trace[i].algorithm);
  }
  const auto pa = a.scene.cube.pixel(3, 4);
  const auto pb = b.scene.cube.pixel(3, 4);
  EXPECT_TRUE(std::equal(pa.begin(), pa.end(), pb.begin(), pb.end()));
}

TEST(PerfbenchConditions, ListsTheSevenToggles) {
  EXPECT_EQ(toggle_names().size(), 7u);
  EXPECT_STREQ(build_type(), "Release");
}

}  // namespace
}  // namespace perfbench
