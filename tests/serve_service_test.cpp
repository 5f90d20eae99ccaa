// End-to-end scene-service properties: rate limits and in-flight rank
// quotas reject with named reasons while the rest of the stream proceeds;
// only a rate limit needs an arrival-sorted stream; run_schedule's
// rate-limit pre-pass leaves the admitted requests exactly as a run of the
// limiter's sub-stream does, and sched.jobs.rejected counts both quota
// families; batched runs return outputs bit-identical to unbatched runs
// of the same stream (and finish no later); a resilient service with both
// quota families and batching absorbs a crash; the whole service plane --
// records, outputs, per-tenant SLA summaries -- is bit-identical across
// repeated runs and both executor modes, including at fleet scale
// (HPRS_STRESS_RANKS shrinks the 192-rank world for sanitizer runs).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/run_summary.hpp"
#include "obs/snapshot.hpp"
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

/// A 40-request tenant-mix trace compressed into 5 ms, so gangs (about
/// 0.3 ms each) overlap, served under both quota families: survey and
/// adhoc rate-limited, adhoc and tasking capped in flight, batching on.
/// Each family refuses some requests and riders still attach.
std::vector<sched::JobSpec> quota_trace() {
  return small_trace(40, /*max_ranks=*/4, /*duration_s=*/0.005);
}

sched::SchedulerConfig quota_config() {
  sched::SchedulerConfig config;
  config.batching = true;
  config.record_metrics = false;
  config.quotas["survey"].rate_limit = 3;
  config.quotas["survey"].rate_window_s = 0.001;
  config.quotas["adhoc"].rate_limit = 2;
  config.quotas["adhoc"].rate_window_s = 0.002;
  config.quotas["adhoc"].max_inflight_ranks = 2;
  config.quotas["tasking"].max_inflight_ranks = 6;
  return config;
}

/// Every field of two records, attempt history included.
void expect_record_equal(const sched::JobRecord& a, const sched::JobRecord& b,
                         std::size_t pos) {
  EXPECT_EQ(a.id, b.id) << "req " << pos;
  EXPECT_EQ(a.algorithm, b.algorithm) << "req " << pos;
  EXPECT_EQ(a.arrival_s, b.arrival_s) << "req " << pos;
  EXPECT_EQ(a.dispatch_s, b.dispatch_s) << "req " << pos;
  EXPECT_EQ(a.finish_s, b.finish_s) << "req " << pos;
  EXPECT_EQ(a.est_seconds, b.est_seconds) << "req " << pos;
  EXPECT_EQ(a.members, b.members) << "req " << pos;
  EXPECT_EQ(a.busy_s, b.busy_s) << "req " << pos;
  EXPECT_EQ(a.rejected, b.rejected) << "req " << pos;
  EXPECT_EQ(a.error, b.error) << "req " << pos;
  EXPECT_EQ(a.state, b.state) << "req " << pos;
  EXPECT_EQ(a.tenant, b.tenant) << "req " << pos;
  EXPECT_EQ(a.batched_into, b.batched_into) << "req " << pos;
  EXPECT_EQ(a.batch_fanout, b.batch_fanout) << "req " << pos;
  ASSERT_EQ(a.attempts.size(), b.attempts.size()) << "req " << pos;
  for (std::size_t k = 0; k < a.attempts.size(); ++k) {
    const sched::JobAttempt& x = a.attempts[k];
    const sched::JobAttempt& y = b.attempts[k];
    EXPECT_EQ(x.dispatch_s, y.dispatch_s) << "req " << pos << " #" << k;
    EXPECT_EQ(x.end_s, y.end_s) << "req " << pos << " #" << k;
    EXPECT_EQ(x.backoff_s, y.backoff_s) << "req " << pos << " #" << k;
    EXPECT_EQ(x.members, y.members) << "req " << pos << " #" << k;
    EXPECT_EQ(x.resumed_seq, y.resumed_seq) << "req " << pos << " #" << k;
    EXPECT_EQ(x.checkpoint_at_s, y.checkpoint_at_s)
        << "req " << pos << " #" << k;
    EXPECT_EQ(x.outcome, y.outcome) << "req " << pos << " #" << k;
  }
}

void expect_output_equal(const sched::JobOutput& a, const sched::JobOutput& b,
                         std::size_t pos) {
  EXPECT_EQ(a.targets, b.targets) << "req " << pos;
  EXPECT_EQ(a.scores, b.scores) << "req " << pos;
  EXPECT_EQ(a.labels, b.labels) << "req " << pos;
  EXPECT_EQ(a.label_count, b.label_count) << "req " << pos;
}

void expect_service_equal(const ServiceResult& a, const ServiceResult& b) {
  ASSERT_EQ(a.schedule.records.size(), b.schedule.records.size());
  for (std::size_t i = 0; i < a.schedule.records.size(); ++i) {
    expect_record_equal(a.schedule.records[i], b.schedule.records[i], i);
  }
  ASSERT_EQ(a.schedule.outputs.size(), b.schedule.outputs.size());
  for (std::size_t i = 0; i < a.schedule.outputs.size(); ++i) {
    expect_output_equal(a.schedule.outputs[i], b.schedule.outputs[i], i);
  }
  EXPECT_EQ(a.schedule.lost_ranks, b.schedule.lost_ranks);
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

  sched::TenantQuotas quotas;
  quotas["metered"].rate_limit = 2;
  quotas["metered"].rate_window_s = 100.0;
  std::vector<sched::RateRejection> rejected;
  const auto admitted = sched::apply_rate_limits(stream, quotas, rejected);
  // First two fill the window; the next four are refused; the late request
  // arrives after the window slid and is admitted again.
  ASSERT_EQ(rejected.size(), 4u);
  EXPECT_EQ(admitted.size(), 3u);
  EXPECT_EQ(admitted.back().id, 7u);
  for (const sched::RateRejection& r : rejected) {
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
  sched::SchedulerConfig config;
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

TEST(ServeServiceTest, OnlyARateLimitNeedsAnArrivalSortedStream) {
  // Without a rate limit the service takes a stream in any order; with one
  // the limiter names the first position that breaks arrival order.
  const simnet::Platform platform = cluster(6);
  const hsi::HsiCube scene = testing::striped_cube(32, 16, 24, 4);
  std::vector<sched::JobSpec> stream;
  for (std::size_t k = 0; k < 3; ++k) {
    sched::JobSpec spec;
    spec.id = k + 1;
    spec.arrival_s = 1e-3 * static_cast<double>(2 - k);
    spec.ranks = 2;
    spec.targets = 4;
    spec.tenant = "metered";
    stream.push_back(spec);
  }
  sched::SchedulerConfig config;
  const auto result =
      run_service(platform, scene, stream, config, fast_options());
  EXPECT_EQ(result.schedule.completed(), stream.size());

  config.quotas["metered"].rate_limit = 5;
  try {
    (void)run_service(platform, scene, stream, config, fast_options());
    FAIL() << "expected an Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("not arrival-sorted at position 1"),
              std::string::npos)
        << e.what();
  }
}

TEST(ServeServiceTest, RateLimitsLeaveTheAdmittedRequestsAsTheirSubStream) {
  // run_schedule applies the rate limits as a pre-pass: the requests they
  // admit run exactly as the limiter's sub-stream does with the rate
  // limits off (in-flight caps and batching kept) -- same records, same
  // outputs, same counter-plane timeline -- and the refused requests keep
  // their named reasons at their own stream positions.
  const simnet::Platform platform = cluster(7);
  const hsi::HsiCube scene = testing::striped_cube(32, 16, 24, 4);
  const auto stream = quota_trace();
  const sched::SchedulerConfig config = quota_config();
  std::vector<sched::RateRejection> refused;
  const auto admitted =
      sched::apply_rate_limits(stream, config.quotas, refused);
  ASSERT_FALSE(refused.empty());
  sched::SchedulerConfig caps_only = config;
  for (auto& [name, quota] : caps_only.quotas) quota.rate_limit = 0;

  for (const vmpi::ExecMode mode :
       {vmpi::ExecMode::kBoundedExecutor, vmpi::ExecMode::kThreadPerRank}) {
    vmpi::Options options = fast_options(mode);
    options.snapshot.enabled = true;
    options.snapshot.interval_s = 0.0005;
    const auto full =
        sched::run_schedule(platform, scene, stream, config, options);
    const auto sub =
        sched::run_schedule(platform, scene, admitted, caps_only, options);
    EXPECT_EQ(full.makespan_s, sub.makespan_s);
    EXPECT_EQ(full.utilization, sub.utilization);
    EXPECT_EQ(obs::snapshot_timeline_json(full.report.snapshots),
              obs::snapshot_timeline_json(sub.report.snapshots));
    std::size_t next = 0;
    std::size_t capped = 0;
    for (std::size_t pos = 0; pos < stream.size(); ++pos) {
      const sched::JobRecord& record = full.records[pos];
      if (next < refused.size() && refused[next].pos == pos) {
        EXPECT_EQ(record.id, stream[pos].id);
        EXPECT_EQ(record.state, sched::JobState::kRejected) << "req " << pos;
        EXPECT_TRUE(record.rejected) << "req " << pos;
        EXPECT_EQ(record.error, refused[next].reason) << "req " << pos;
        EXPECT_EQ(record.dispatch_s, -1.0) << "req " << pos;
        EXPECT_TRUE(full.outputs[pos].targets.empty()) << "req " << pos;
        ++next;
        continue;
      }
      expect_record_equal(record, sub.records[pos - next], pos);
      expect_output_equal(full.outputs[pos], sub.outputs[pos - next], pos);
      if (record.error.rfind("quota:inflight_ranks", 0) == 0) ++capped;
    }
    EXPECT_EQ(next, refused.size());
    EXPECT_GT(capped, 0u);
  }
}

TEST(ServeServiceTest, RejectedMetricCountsBothQuotaFamilies) {
  // sched.jobs.rejected counts every refused request, rate-limited ones
  // included, so it agrees with ScheduleResult::rejected() and with the
  // per-tenant SLA rejections.
  const simnet::Platform platform = cluster(7);
  const hsi::HsiCube scene = testing::striped_cube(32, 16, 24, 4);
  sched::SchedulerConfig config = quota_config();
  config.record_metrics = true;
  const obs::ScopedMetrics scoped;
  const auto result =
      run_service(platform, scene, quota_trace(), config, fast_options());
  ASSERT_GT(result.rate_rejected, 0u);
  ASSERT_GT(result.schedule.rejected(), result.rate_rejected);
  std::map<std::string, std::uint64_t> counters;
  for (const auto& [name, value] : obs::Metrics::instance().snapshot()) {
    counters[name] = value.count;
  }
  EXPECT_EQ(counters.at("sched.jobs.rejected"), result.schedule.rejected());
  EXPECT_EQ(counters.at("serve.rejected.rate_limit"), result.rate_rejected);
  std::size_t sla_rejected = 0;
  for (const TenantSla& sla : result.tenants) sla_rejected += sla.rejected;
  EXPECT_EQ(sla_rejected, result.schedule.rejected());
}

TEST(ServeServiceTest, ResilientServiceRetriesACrashedLeader) {
  // The service runs on the scheduler's own config, so resilience composes
  // with batching and both quota families: the leader of a computing gang
  // crashes, its job is retried, every request ends in exactly one
  // terminal state, rate-limited requests never dispatch, and the records
  // are bit-identical across both executor modes.
  const simnet::Platform platform = cluster(7);
  const hsi::HsiCube scene = testing::striped_cube(32, 16, 24, 4);
  const auto stream = quota_trace();
  sched::SchedulerConfig config = quota_config();
  config.resilience.enabled = true;
  config.resilience.checkpoint_interval_s = 1e-4;
  const auto probe =
      run_service(platform, scene, stream, config, fast_options());
  std::size_t victim = stream.size();
  for (std::size_t pos = 0; pos < stream.size(); ++pos) {
    const sched::JobRecord& record = probe.schedule.records[pos];
    if (record.completed() && record.batched_into == 0) {
      victim = pos;
      break;
    }
  }
  ASSERT_LT(victim, stream.size());
  const sched::JobRecord& gang = probe.schedule.records[victim];
  const vmpi::RankCrash crash{
      gang.members.front(),
      gang.dispatch_s + 0.5 * (gang.finish_s - gang.dispatch_s)};

  ServiceResult runs[2];
  int run = 0;
  for (const vmpi::ExecMode mode :
       {vmpi::ExecMode::kBoundedExecutor, vmpi::ExecMode::kThreadPerRank}) {
    vmpi::Options options = fast_options(mode);
    options.fault_plan.crashes.push_back(crash);
    runs[run] = run_service(platform, scene, stream, config, options);
    const ServiceResult& result = runs[run++];
    EXPECT_EQ(result.schedule.lost_ranks, std::vector<int>{crash.rank});
    EXPECT_GE(result.schedule.records[victim].attempts.size(), 2u);
    std::size_t rate_limited = 0;
    for (const sched::JobRecord& record : result.schedule.records) {
      EXPECT_NE(record.state, sched::JobState::kPending) << record.id;
      EXPECT_EQ(record.rejected, record.state == sched::JobState::kRejected)
          << record.id;
      EXPECT_EQ(record.completed(),
                record.state == sched::JobState::kCompleted)
          << record.id;
      if (record.error.rfind("quota:rate_limit", 0) != 0) continue;
      ++rate_limited;
      EXPECT_EQ(record.dispatch_s, -1.0) << record.id;
      EXPECT_TRUE(record.members.empty()) << record.id;
      EXPECT_TRUE(record.attempts.empty()) << record.id;
    }
    EXPECT_GT(rate_limited, 0u);
    EXPECT_EQ(rate_limited, result.rate_rejected);
    EXPECT_EQ(result.schedule.completed() + result.schedule.rejected() +
                  result.schedule.degraded() + result.schedule.failed(),
              stream.size());
  }
  expect_service_equal(runs[0], runs[1]);
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

  sched::SchedulerConfig solo;
  solo.batching = false;
  sched::SchedulerConfig batched;
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
  sched::SchedulerConfig config;
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
  sched::SchedulerConfig config;
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
