// Policy-layer determinism: stable job-id tie-breaks in every ordering,
// heterogeneity-aware placement, reservation arithmetic, conservative
// backfill, and the memory-bound admission error.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "hsi/cube.hpp"
#include "sched/cost_model.hpp"
#include "sched/job.hpp"
#include "sched/policy.hpp"
#include "simnet/platform.hpp"

namespace hprs::sched {
namespace {

/// Heterogeneous pool: rank i has cycle time 1 + i ms/Mflop (rank 0 the
/// fastest) and `memory_mb` megabytes each.
simnet::Platform pool_platform(std::size_t n, std::size_t memory_mb = 1024) {
  std::vector<simnet::ProcessorSpec> procs;
  for (std::size_t i = 0; i < n; ++i) {
    procs.push_back(simnet::ProcessorSpec{
        "p" + std::to_string(i), "t",
        0.001 * static_cast<double>(1 + i), memory_mb, 512, 0});
  }
  return simnet::Platform("pool", std::move(procs), {{10.0}});
}

/// The dispatcher's ready queue under `policy`, holding `jobs`.
ReadyQueue queue_of(Policy policy, const std::vector<PendingJob>& jobs) {
  ReadyQueue queue(policy);
  for (const PendingJob& job : jobs) queue.push(job);
  return queue;
}

/// Job ids in the queue's dispatch-preference order.
std::vector<std::uint64_t> order_of(const ReadyQueue& queue) {
  std::vector<std::uint64_t> ids;
  for (const auto& [key, job] : queue.ordered()) ids.push_back(job.id);
  return ids;
}

TEST(SchedPolicyTest, EqualKeysBreakTiesOnJobId) {
  // Same arrival everywhere and same estimate everywhere, submitted in a
  // shuffled order: every policy must settle on ascending job id.
  const std::vector<PendingJob> ready{
      {/*id=*/7, /*index=*/0, /*arrival=*/1.0, /*est=*/5.0, /*width=*/1},
      {/*id=*/3, /*index=*/1, /*arrival=*/1.0, /*est=*/5.0, /*width=*/1},
      {/*id=*/5, /*index=*/2, /*arrival=*/1.0, /*est=*/5.0, /*width=*/1},
  };
  for (Policy policy :
       {Policy::kFifo, Policy::kSjf, Policy::kHeteroBestFit}) {
    EXPECT_EQ(order_of(queue_of(policy, ready)),
              (std::vector<std::uint64_t>{3, 5, 7}))
        << to_string(policy);
  }
}

TEST(SchedPolicyTest, SjfOrdersByEstimateThenId) {
  const ReadyQueue queue =
      queue_of(Policy::kSjf, {{/*id=*/1, 0, 0.0, /*est=*/9.0, 1},
                              {/*id=*/2, 1, 0.0, /*est=*/2.0, 1},
                              // later arrival, equal estimate
                              {/*id=*/3, 2, 5.0, /*est=*/2.0, 1}});
  // Equal estimate: id 2 before id 3.
  EXPECT_EQ(order_of(queue), (std::vector<std::uint64_t>{2, 3, 1}));
}

TEST(SchedPolicyTest, HeteroPicksFastestFreeRanks) {
  const simnet::Platform platform = pool_platform(6);
  // Free ranks 5,1,3 (ascending input): hetero takes the two fastest (1
  // then 3), returned ascending for Comm::subset.
  const auto members =
      pick_members(Policy::kHeteroBestFit, platform, {1, 3, 5}, 2);
  EXPECT_EQ(members, (std::vector<int>{1, 3}));
  // FIFO/SJF take the lowest ids regardless of speed.
  EXPECT_EQ(pick_members(Policy::kFifo, platform, {1, 3, 5}, 2),
            (std::vector<int>{1, 3}));
  EXPECT_EQ(pick_members(Policy::kHeteroBestFit, platform, {2, 4, 5}, 1),
            (std::vector<int>{2}));
}

TEST(SchedPolicyTest, ReservationTimeDrainsCompletionsInEstOrder) {
  std::vector<RunningJob> running{
      {/*id=*/1, 0, /*est_finish=*/20.0, {1, 2}, /*batch_key=*/0, {}},
      {/*id=*/2, 1, /*est_finish=*/10.0, {3}, /*batch_key=*/0, {}},
  };
  // 1 free now; width 2 satisfied when job 2 (est 10) drains.
  EXPECT_EQ(reservation_time(running, 1, 2, 5.0), 10.0);
  // width 4 needs both completions.
  EXPECT_EQ(reservation_time(running, 1, 4, 5.0), 20.0);
  // already satisfiable: now.
  EXPECT_EQ(reservation_time(running, 3, 2, 5.0), 5.0);
}

TEST(SchedPolicyTest, ConservativeBackfillRespectsHeadReservation) {
  const simnet::Platform platform = pool_platform(6);
  // Head (id 1) wants 4 ranks; only {4, 5} are free; the running job's
  // estimated finish sets the head's reservation at t=10.
  const std::vector<PendingJob> ready{
      {/*id=*/1, 0, /*arrival=*/0.0, /*est=*/3.0, /*width=*/4},
      {/*id=*/2, 1, /*arrival=*/1.0, /*est=*/4.0, /*width=*/2},
  };
  const ReadyQueue hetero = queue_of(Policy::kHeteroBestFit, ready);
  std::vector<RunningJob> running{{/*id=*/9, 2, /*est_finish=*/10.0,
                                   {0, 1, 2, 3}, /*batch_key=*/0, {}}};
  // now=5: 5 + 4 <= 10, so job 2 backfills onto the free ranks.
  auto sel = try_select(Policy::kHeteroBestFit, platform, hetero, {4, 5},
                        running, /*now=*/5.0);
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(sel->id, 2u);
  EXPECT_EQ(sel->index, 1u);
  EXPECT_EQ(sel->members, (std::vector<int>{4, 5}));
  // now=7: 7 + 4 > 10 would delay the head's start -- no backfill.
  EXPECT_FALSE(try_select(Policy::kHeteroBestFit, platform, hetero, {4, 5},
                          running, /*now=*/7.0)
                   .has_value());
  // FIFO never backfills: the head blocks the line at any time.
  EXPECT_FALSE(try_select(Policy::kFifo, platform,
                          queue_of(Policy::kFifo, ready), {4, 5}, running,
                          /*now=*/5.0)
                   .has_value());
}

TEST(SchedPolicyTest, HeadDispatchesAsSoonAsItFits) {
  const simnet::Platform platform = pool_platform(6);
  const ReadyQueue ready =
      queue_of(Policy::kHeteroBestFit, {{/*id=*/1, 0, 0.0, 3.0, /*width=*/2},
                                        {/*id=*/2, 1, 1.0, 1.0, /*width=*/1}});
  auto sel = try_select(Policy::kHeteroBestFit, platform, ready, {2, 3, 4},
                        {}, /*now=*/5.0);
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(sel->id, 1u);  // head first, never skipped
  EXPECT_EQ(sel->members, (std::vector<int>{2, 3}));  // fastest free ranks
}

TEST(SchedAdmissionTest, RejectsOversizedJobWithNamedError) {
  // 4 tiny-memory workers: a 64x64x32 float cube (512 KiB) cannot fit in
  // 2 ranks x 1 MB x 0.1 fraction.
  const simnet::Platform platform = pool_platform(5, /*memory_mb=*/1);
  const hsi::HsiCube scene(64, 64, 32);
  JobSpec spec;
  spec.id = 42;
  spec.ranks = 2;
  spec.memory_fraction = 0.1;
  try {
    check_admission(platform, {1, 2, 3, 4}, spec, scene);
    FAIL() << "expected AdmissionError";
  } catch (const AdmissionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("job 42"), std::string::npos) << what;
    EXPECT_NE(what.find("does not fit in memory"), std::string::npos) << what;
  }
}

TEST(SchedAdmissionTest, RejectsGangWiderThanPoolOrRows) {
  const simnet::Platform platform = pool_platform(5);
  const hsi::HsiCube scene(8, 8, 4);
  JobSpec wide;
  wide.id = 1;
  wide.ranks = 9;
  EXPECT_THROW(check_admission(platform, {1, 2, 3, 4}, wide, scene),
               AdmissionError);
  JobSpec tall;
  tall.id = 2;
  tall.ranks = 4;
  const hsi::HsiCube thin(3, 8, 4);  // fewer rows than ranks
  EXPECT_THROW(check_admission(platform, {1, 2, 3, 4}, tall, thin),
               AdmissionError);
  JobSpec fits;
  fits.id = 3;
  fits.ranks = 4;
  EXPECT_NO_THROW(check_admission(platform, {1, 2, 3, 4}, fits, scene));
}

TEST(SchedCostModelTest, EstimateScalesWithWorkAndMembers) {
  const simnet::Platform platform = pool_platform(6);
  const hsi::HsiCube scene(32, 16, 24);
  JobSpec spec;
  spec.id = 1;
  spec.algorithm = JobAlgorithm::kAtdca;
  spec.ranks = 2;
  const JobEstimate two = estimate_job(platform, {1, 2}, spec, scene);
  const JobEstimate four = estimate_job(platform, {1, 2, 3, 4}, spec, scene);
  EXPECT_GT(two.seconds, 0.0);
  // More members = more aggregate speed = smaller compute bound.
  EXPECT_LT(four.seconds, two.seconds);
  // Faster members beat slower ones at equal width.
  const JobEstimate slow = estimate_job(platform, {4, 5}, spec, scene);
  EXPECT_LT(two.seconds, slow.seconds);
  // Replication scales the estimate.
  JobSpec heavy = spec;
  heavy.replication = 10;
  EXPECT_GT(estimate_job(platform, {1, 2}, heavy, scene).seconds,
            5.0 * two.seconds);
}

}  // namespace
}  // namespace hprs::sched
