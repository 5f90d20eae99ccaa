// End-to-end scene-service properties: rate limits and in-flight rank
// quotas reject with named reasons while the rest of the stream proceeds;
// batched runs return outputs bit-identical to unbatched runs of the same
// stream (and finish no later); the whole service plane -- records,
// outputs, per-tenant SLA summaries -- is bit-identical across repeated
// runs and both executor modes, including at fleet scale
// (HPRS_STRESS_RANKS shrinks the 192-rank world for sanitizer runs).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "obs/run_summary.hpp"
#include "serve/service.hpp"
#include "serve/traffic.hpp"
#include "test_scenes.hpp"

namespace hprs::serve {
namespace {

simnet::Platform cluster(std::size_t n) {
  std::vector<simnet::ProcessorSpec> procs;
  for (std::size_t i = 0; i < n; ++i) {
    procs.push_back(simnet::ProcessorSpec{
        "p" + std::to_string(i), "t",
        0.001 * static_cast<double>(1 + i % 3), 1024, 512, 0});
  }
  return simnet::Platform("serve-now", std::move(procs), {{10.0}});
}

vmpi::Options fast_options(
    vmpi::ExecMode mode = vmpi::ExecMode::kBoundedExecutor) {
  vmpi::Options o;
  o.per_message_latency_s = 0.0;
  o.deadlock_timeout_s = 120.0;
  o.exec_mode = mode;
  return o;
}

/// A small trace whose tenants use test-sized parameters.
std::vector<sched::JobSpec> small_trace(std::size_t jobs, int max_ranks,
                                        double duration_s = 2.0,
                                        std::uint64_t seed = 5) {
  TraceConfig config = preset_trace("tenant-mix");
  config.jobs = jobs;
  config.duration_s = duration_s;
  config.seed = seed;
  for (TenantProfile& tenant : config.tenants) {
    tenant.targets = 4;
    tenant.classes = 3;
    tenant.skewers = 32;
    tenant.max_ranks = std::min(tenant.max_ranks, max_ranks);
    tenant.min_ranks = std::min(tenant.min_ranks, tenant.max_ranks);
  }
  return generate_trace(config);
}

void expect_service_equal(const ServiceResult& a, const ServiceResult& b) {
  ASSERT_EQ(a.schedule.records.size(), b.schedule.records.size());
  for (std::size_t i = 0; i < a.schedule.records.size(); ++i) {
    const sched::JobRecord& ra = a.schedule.records[i];
    const sched::JobRecord& rb = b.schedule.records[i];
    EXPECT_EQ(ra.id, rb.id) << "req " << i;
    EXPECT_EQ(ra.dispatch_s, rb.dispatch_s) << "req " << i;
    EXPECT_EQ(ra.finish_s, rb.finish_s) << "req " << i;
    EXPECT_EQ(ra.members, rb.members) << "req " << i;
    EXPECT_EQ(ra.busy_s, rb.busy_s) << "req " << i;
    EXPECT_EQ(ra.state, rb.state) << "req " << i;
    EXPECT_EQ(ra.error, rb.error) << "req " << i;
    EXPECT_EQ(ra.tenant, rb.tenant) << "req " << i;
    EXPECT_EQ(ra.batched_into, rb.batched_into) << "req " << i;
    EXPECT_EQ(ra.batch_fanout, rb.batch_fanout) << "req " << i;
  }
  ASSERT_EQ(a.schedule.outputs.size(), b.schedule.outputs.size());
  for (std::size_t i = 0; i < a.schedule.outputs.size(); ++i) {
    EXPECT_EQ(a.schedule.outputs[i].targets, b.schedule.outputs[i].targets);
    EXPECT_EQ(a.schedule.outputs[i].labels, b.schedule.outputs[i].labels);
  }
  // The whole SLA plane, compared as serialized documents: any drift in
  // any percentile of any tenant fails character-exactly.
  obs::RunSummary sa, sb;
  add_sla_summary(sa, "serve", a);
  add_sla_summary(sb, "serve", b);
  EXPECT_EQ(sa.to_json(), sb.to_json());
}

TEST(ServeServiceTest, RateLimitRejectsWithNamedReasons) {
  // Pure pre-pass: no engine needed.
  std::vector<sched::JobSpec> stream;
  for (std::size_t k = 0; k < 6; ++k) {
    sched::JobSpec spec;
    spec.id = k + 1;
    spec.arrival_s = static_cast<double>(k);
    spec.tenant = "metered";
    stream.push_back(spec);
  }
  sched::JobSpec late;
  late.id = 7;
  late.arrival_s = 150.0;
  late.tenant = "metered";
  stream.push_back(late);

  TenantQuotas quotas;
  quotas["metered"].rate_limit = 2;
  quotas["metered"].rate_window_s = 100.0;
  std::vector<RateRejection> rejected;
  const auto admitted = apply_rate_limits(stream, quotas, rejected);
  // First two fill the window; the next four are refused; the late request
  // arrives after the window slid and is admitted again.
  ASSERT_EQ(rejected.size(), 4u);
  EXPECT_EQ(admitted.size(), 3u);
  EXPECT_EQ(admitted.back().id, 7u);
  for (const RateRejection& r : rejected) {
    EXPECT_EQ(r.reason.rfind("quota:rate_limit tenant 'metered'", 0), 0u)
        << r.reason;
  }
  EXPECT_EQ(rejected.front().pos, 2u);
}

TEST(ServeServiceTest, InflightQuotaRejectsAtArrivalWithNamedReason) {
  const simnet::Platform platform = cluster(6);
  const hsi::HsiCube scene = testing::striped_cube(32, 16, 24, 4);
  // Three identical requests: the second arrives while the first is still
  // in flight and breaches the 2-rank cap; the third arrives long after.
  std::vector<sched::JobSpec> stream;
  for (std::size_t k = 0; k < 3; ++k) {
    sched::JobSpec spec;
    spec.id = k + 1;
    spec.algorithm = core::Algorithm::kAtdca;
    spec.arrival_s = k == 2 ? 1000.0 : static_cast<double>(k) * 1e-4;
    spec.ranks = 2;
    spec.targets = 4;
    spec.tenant = "capped";
    stream.push_back(spec);
  }
  ServiceConfig config;
  config.quotas["capped"].max_inflight_ranks = 2;
  const auto result =
      run_service(platform, scene, stream, config, fast_options());
  EXPECT_EQ(result.schedule.records[0].state, sched::JobState::kCompleted);
  EXPECT_EQ(result.schedule.records[1].state, sched::JobState::kRejected);
  EXPECT_EQ(
      result.schedule.records[1].error.rfind("quota:inflight_ranks", 0), 0u)
      << result.schedule.records[1].error;
  EXPECT_EQ(result.schedule.records[2].state, sched::JobState::kCompleted);
  ASSERT_EQ(result.tenants.size(), 1u);
  EXPECT_EQ(result.tenants[0].name, "capped");
  EXPECT_EQ(result.tenants[0].rejected, 1u);
  EXPECT_EQ(result.tenants[0].completed, 2u);
}

TEST(ServeServiceTest, BatchingKeepsOutputsBitIdenticalAndFinishesNoLater) {
  const simnet::Platform platform = cluster(5);
  const hsi::HsiCube scene = testing::striped_cube(32, 16, 24, 4);
  // Six compute-equivalent requests of one shared scene (one burst at t=0
  // exercising the dispatch-time sweep, one mid-flight arrival exercising
  // the attach-to-running path) plus one distinct request.
  std::vector<sched::JobSpec> stream;
  for (std::size_t k = 0; k < 6; ++k) {
    sched::JobSpec spec;
    spec.id = k + 1;
    spec.algorithm = core::Algorithm::kAtdca;
    spec.arrival_s = k == 5 ? 1e-4 : 0.0;
    spec.ranks = 2 + static_cast<int>(k % 2);
    spec.targets = 4;
    spec.tenant = "survey";
    stream.push_back(spec);
  }
  sched::JobSpec other;
  other.id = 7;
  other.algorithm = core::Algorithm::kPct;
  other.arrival_s = 2e-4;
  other.ranks = 2;
  other.classes = 3;
  other.tenant = "tasking";
  stream.push_back(other);
  stamp_batch_keys(stream, /*scene_uid=*/0xfeed);

  ServiceConfig solo;
  solo.batching = false;
  ServiceConfig batched;
  batched.batching = true;
  const auto unbatched =
      run_service(platform, scene, stream, solo, fast_options());
  const auto fanned =
      run_service(platform, scene, stream, batched, fast_options());

  EXPECT_EQ(unbatched.batches.riders, 0u);
  EXPECT_GE(fanned.batches.riders, 4u);
  EXPECT_GE(fanned.batches.leaders, 1u);
  ASSERT_EQ(fanned.schedule.outputs.size(), stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(fanned.schedule.outputs[i].targets,
              unbatched.schedule.outputs[i].targets)
        << "req " << i;
    EXPECT_EQ(fanned.schedule.outputs[i].labels,
              unbatched.schedule.outputs[i].labels)
        << "req " << i;
  }
  // Computing once can only help the schedule.
  EXPECT_LE(fanned.schedule.makespan_s, unbatched.schedule.makespan_s);
  for (const sched::JobRecord& record : fanned.schedule.records) {
    if (record.batched_into != 0) {
      EXPECT_EQ(record.busy_s, 0.0) << "rider " << record.id;
      EXPECT_GE(record.finish_s, record.dispatch_s) << "rider " << record.id;
    }
  }
}

TEST(ServeServiceTest, ServiceBitIdenticalAcrossRunsAndExecutorModes) {
  const simnet::Platform platform = cluster(7);
  const hsi::HsiCube scene = testing::striped_cube(32, 16, 24, 4);
  const auto stream = small_trace(18, /*max_ranks=*/4);
  ServiceConfig config;
  config.batching = true;
  config.quotas["survey"].rate_limit = 4;
  config.quotas["survey"].rate_window_s = 0.5;
  config.quotas["tasking"].max_inflight_ranks = 8;
  config.record_metrics = false;

  const auto first = run_service(platform, scene, stream, config,
                                 fast_options());
  const auto second = run_service(platform, scene, stream, config,
                                  fast_options());
  const auto threads =
      run_service(platform, scene, stream, config,
                  fast_options(vmpi::ExecMode::kThreadPerRank));
  expect_service_equal(first, second);
  expect_service_equal(first, threads);
  // Every request is accounted for exactly once across the tenant SLAs.
  std::size_t requests = 0;
  for (const TenantSla& sla : first.tenants) requests += sla.requests;
  EXPECT_EQ(requests, stream.size());
  EXPECT_FALSE(sla_table(first).empty());
}

TEST(ServeServiceTest, StressManyRanksServiceBitIdentical) {
  const int n = env_int_or("HPRS_STRESS_RANKS", 192, 8, 4096);
  const simnet::Platform platform = cluster(static_cast<std::size_t>(n));
  const hsi::HsiCube scene = testing::striped_cube(32, 16, 24, 4);
  auto stream = small_trace(10, std::max(2, n / 8), /*duration_s=*/1.0);
  ServiceConfig config;
  config.batching = true;
  config.record_metrics = false;
  const auto bounded =
      run_service(platform, scene, stream, config, fast_options());
  const auto threads =
      run_service(platform, scene, stream, config,
                  fast_options(vmpi::ExecMode::kThreadPerRank));
  expect_service_equal(bounded, threads);
  EXPECT_EQ(bounded.schedule.completed() + bounded.schedule.rejected(),
            stream.size());
}

}  // namespace
}  // namespace hprs::serve
