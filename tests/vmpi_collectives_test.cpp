// Hand-verified timing of the collective cost models: linear (network of
// workstations) and binomial-tree (switched cluster fabric) schedules, NIC
// serialization, inter-segment serial links, and the exchange collective;
// and the charging rule every transfer obeys (compute + wait <= clock, and
// no idle span of zero width).
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "simnet/platform.hpp"
#include "vmpi/comm.hpp"
#include "vmpi/engine.hpp"

namespace hprs::vmpi {
namespace {

/// 1 megabit at 10 ms/megabit = 10 ms of wire time; compute is negligible.
constexpr std::size_t kMegabit = 125'000;
constexpr double kD = 0.010;

simnet::Platform now_platform(std::size_t n) {
  std::vector<simnet::ProcessorSpec> procs;
  for (std::size_t i = 0; i < n; ++i) {
    procs.push_back(
        simnet::ProcessorSpec{"p" + std::to_string(i), "t", 0.001, 1024, 512, 0});
  }
  return simnet::Platform("now", std::move(procs), {{10.0}});
}

simnet::Platform cluster_platform(std::size_t n) {
  std::vector<simnet::ProcessorSpec> procs;
  for (std::size_t i = 0; i < n; ++i) {
    procs.push_back(
        simnet::ProcessorSpec{"n" + std::to_string(i), "t", 0.001, 1024, 512, 0});
  }
  return simnet::Platform("cluster", std::move(procs), {{10.0}},
                          /*switched_fabric=*/true);
}

/// Two segments of two processors; 10 ms/megabit inside, 100 between.
simnet::Platform segmented_platform() {
  std::vector<simnet::ProcessorSpec> procs;
  for (std::size_t i = 0; i < 4; ++i) {
    procs.push_back(simnet::ProcessorSpec{"p" + std::to_string(i), "t", 0.001,
                                          1024, 512, i / 2});
  }
  return simnet::Platform("segmented", std::move(procs),
                          {{10.0, 100.0}, {100.0, 10.0}});
}

Options zero_latency() {
  Options o;
  o.per_message_latency_s = 0.0;
  o.deadlock_timeout_s = 5.0;
  return o;
}

TEST(LinearCollectivesTest, BcastSerializesThroughRootNic) {
  Engine engine(now_platform(3), zero_latency());
  const auto report = engine.run([](Comm& comm) {
    (void)comm.bcast(0, comm.is_root() ? 42 : 0, kMegabit);
  });
  // Root sends to rank 1 (ends at d), then rank 2 (ends at 2d).
  EXPECT_NEAR(report.ranks[1].clock, kD, 1e-12);
  EXPECT_NEAR(report.ranks[2].clock, 2 * kD, 1e-12);
  EXPECT_NEAR(report.ranks[0].clock, 2 * kD, 1e-12);
  EXPECT_EQ(report.ranks[0].bytes_sent, 2 * kMegabit);
  EXPECT_EQ(report.ranks[2].bytes_received, kMegabit);
}

TEST(LinearCollectivesTest, GatherSerializesThroughRootNic) {
  Engine engine(now_platform(3), zero_latency());
  const auto report = engine.run([](Comm& comm) {
    (void)comm.gather(0, comm.rank(), kMegabit);
  });
  // Rank 1 delivers first (d), rank 2 queues behind it (2d).
  EXPECT_NEAR(report.ranks[1].clock, kD, 1e-12);
  EXPECT_NEAR(report.ranks[2].clock, 2 * kD, 1e-12);
  EXPECT_NEAR(report.ranks[0].clock, 2 * kD, 1e-12);
  EXPECT_EQ(report.ranks[0].bytes_received, 2 * kMegabit);
}

TEST(LinearCollectivesTest, ScatterChargesPerPartSizes) {
  Engine engine(now_platform(3), zero_latency());
  const auto report = engine.run([](Comm& comm) {
    std::vector<int> parts;
    std::vector<std::size_t> bytes = {0, kMegabit, 3 * kMegabit};
    if (comm.is_root()) parts = {0, 1, 2};
    (void)comm.scatter(0, std::move(parts), bytes);
  });
  // Rank 1 receives 1 megabit (d), rank 2 then 3 megabits (d + 3d = 4d).
  EXPECT_NEAR(report.ranks[1].clock, kD, 1e-12);
  EXPECT_NEAR(report.ranks[2].clock, 4 * kD, 1e-12);
  EXPECT_NEAR(report.ranks[0].clock, 4 * kD, 1e-12);
}

TEST(LinearCollectivesTest, LateRootDelaysEveryTransfer) {
  Engine engine(now_platform(2), zero_latency());
  const auto report = engine.run([](Comm& comm) {
    if (comm.is_root()) comm.compute(50'000'000);  // busy until 50 ms
    (void)comm.bcast(0, comm.is_root() ? 1 : 0, kMegabit);
  });
  EXPECT_NEAR(report.ranks[1].clock, 0.050 + kD, 1e-9);
}

TEST(TreeCollectivesTest, BcastCompletesInLogDepth) {
  Engine engine(cluster_platform(4), zero_latency());
  const auto report = engine.run([](Comm& comm) {
    (void)comm.bcast(0, comm.is_root() ? 42 : 0, kMegabit);
  });
  // Binomial: step 1: 0->1 (d).  Step 2: 0->2 and 1->3 (both end 2d).
  // Rank 1 receives at d but then forwards to rank 3, so every rank's
  // clock ends at 2d -- two rounds instead of the linear schedule's three.
  EXPECT_NEAR(report.ranks[1].clock, 2 * kD, 1e-12);
  EXPECT_NEAR(report.ranks[2].clock, 2 * kD, 1e-12);
  EXPECT_NEAR(report.ranks[3].clock, 2 * kD, 1e-12);
  EXPECT_NEAR(report.total_time, 2 * kD, 1e-12);
}

TEST(TreeCollectivesTest, TreeBeatsLinearBroadcastAtScale) {
  constexpr std::size_t kN = 16;
  Engine linear(now_platform(kN), zero_latency());
  Engine tree(cluster_platform(kN), zero_latency());
  const auto program = [](Comm& comm) {
    (void)comm.bcast(0, comm.is_root() ? 1 : 0, kMegabit);
  };
  const auto rl = linear.run(program);
  const auto rt = tree.run(program);
  EXPECT_NEAR(rl.total_time, 15 * kD, 1e-9);
  EXPECT_NEAR(rt.total_time, 4 * kD, 1e-9);  // ceil(log2 16) rounds
}

TEST(TreeCollectivesTest, GatherAggregatesSubtreeBytes) {
  Engine engine(cluster_platform(4), zero_latency());
  const auto report = engine.run([](Comm& comm) {
    (void)comm.gather(0, comm.rank(), kMegabit);
  });
  // Step 1: 1->0 and 3->2 in parallel (each d).  Step 2: 2 forwards its
  // accumulated 2 megabits to 0, ending at d + 2d = 3d.
  EXPECT_NEAR(report.total_time, 3 * kD, 1e-12);
  EXPECT_EQ(report.ranks[2].bytes_sent, 2 * kMegabit);
  EXPECT_EQ(report.ranks[2].bytes_received, kMegabit);
}

TEST(TreeCollectivesTest, ScatterShipsSubtreeBytesDown) {
  Engine engine(cluster_platform(4), zero_latency());
  const auto report = engine.run([](Comm& comm) {
    std::vector<int> parts;
    if (comm.is_root()) parts = {0, 1, 2, 3};
    (void)comm.scatter(0, std::move(parts),
                       std::vector<std::size_t>(4, kMegabit));
  });
  // Step 1: 0 ships ranks {2,3}'s 2 megabits to 2 (ends 2d).
  // Step 2: 0->1 (1 megabit, ends 3d because the root NIC was busy);
  //         2->3 (1 megabit, ends 3d, so rank 2 also finishes at 3d).
  EXPECT_NEAR(report.ranks[1].clock, 3 * kD, 1e-12);
  EXPECT_NEAR(report.ranks[3].clock, 3 * kD, 1e-12);
  EXPECT_EQ(report.ranks[2].bytes_received, 2 * kMegabit);
  EXPECT_NEAR(report.total_time, 3 * kD, 1e-9);
}

TEST(SegmentedNetworkTest, CrossSegmentLinksAreSlower) {
  Engine engine(segmented_platform(), zero_latency());
  const auto report = engine.run([](Comm& comm) {
    if (comm.rank() == 0) comm.send(1, 1, kMegabit);   // intra: 10 ms
    if (comm.rank() == 1) (void)comm.recv<int>(0);
    if (comm.rank() == 2) comm.send(3, 1, kMegabit);   // intra: 10 ms
    if (comm.rank() == 3) (void)comm.recv<int>(2);
  });
  EXPECT_NEAR(report.ranks[1].clock, 0.010, 1e-12);
  EXPECT_NEAR(report.ranks[3].clock, 0.010, 1e-12);
}

TEST(SegmentedNetworkTest, InterSegmentSerialLinkSerializesTransfers) {
  Engine engine(segmented_platform(), zero_latency());
  // Two simultaneous cross-segment transfers (0->2 and 1->3) must share
  // the single serial link between segments 0 and 1: 100 ms each, back to
  // back.
  const auto report = engine.run([](Comm& comm) {
    std::vector<std::tuple<int, int, std::size_t>> sends;
    if (comm.rank() == 0) sends.emplace_back(2, 1, kMegabit);
    if (comm.rank() == 1) sends.emplace_back(3, 1, kMegabit);
    (void)comm.exchange(std::move(sends));
  });
  EXPECT_NEAR(report.total_time, 0.200, 1e-9);
}

TEST(ExchangeTest, DisjointPairsRunInParallel) {
  Engine engine(now_platform(4), zero_latency());
  const auto report = engine.run([](Comm& comm) {
    std::vector<std::tuple<int, int, std::size_t>> sends;
    if (comm.rank() == 0) sends.emplace_back(1, 10, kMegabit);
    if (comm.rank() == 2) sends.emplace_back(3, 30, kMegabit);
    const auto recv = comm.exchange(std::move(sends));
    if (comm.rank() == 1) {
      ASSERT_EQ(recv.size(), 1u);
      EXPECT_EQ(recv[0].first, 0);
      EXPECT_EQ(recv[0].second, 10);
    }
    if (comm.rank() == 3) {
      ASSERT_EQ(recv.size(), 1u);
      EXPECT_EQ(recv[0].second, 30);
    }
    if (comm.rank() == 0 || comm.rank() == 2) {
      EXPECT_TRUE(recv.empty());
    }
  });
  // Disjoint NIC pairs on one segment: both finish after one wire time.
  EXPECT_NEAR(report.total_time, kD, 1e-12);
}

TEST(ExchangeTest, BidirectionalPairSerializesOnNics) {
  Engine engine(now_platform(2), zero_latency());
  const auto report = engine.run([](Comm& comm) {
    std::vector<std::tuple<int, int, std::size_t>> sends;
    sends.emplace_back(1 - comm.rank(), comm.rank(), kMegabit);
    const auto recv = comm.exchange(std::move(sends));
    ASSERT_EQ(recv.size(), 1u);
    EXPECT_EQ(recv[0].second, 1 - comm.rank());
  });
  // The two messages share both NICs, so they go back to back.
  EXPECT_NEAR(report.total_time, 2 * kD, 1e-12);
}

TEST(ExchangeTest, EmptyExchangeIsAVirtuallyFreeBarrier) {
  Engine engine(now_platform(3), zero_latency());
  const auto report = engine.run([](Comm& comm) {
    (void)comm.exchange(std::vector<std::tuple<int, int, std::size_t>>{});
  });
  EXPECT_DOUBLE_EQ(report.total_time, 0.0);
}

TEST(LatencyTest, PerMessageLatencyIsAdded) {
  Options opts;
  opts.per_message_latency_s = 0.5;
  Engine engine(now_platform(2), opts);
  const auto report = engine.run([](Comm& comm) {
    (void)comm.bcast(0, comm.is_root() ? 1 : 0, kMegabit);
  });
  EXPECT_NEAR(report.total_time, 0.5 + kD, 1e-9);
}


TEST(AllreduceTest, CombinesAcrossRanksAndBroadcasts) {
  Engine engine(now_platform(4), zero_latency());
  engine.run([](Comm& comm) {
    const int total = comm.allreduce(
        comm.rank() + 1, 16, [](int a, int b) { return a + b; }, 1);
    EXPECT_EQ(total, 1 + 2 + 3 + 4);
  });
}

TEST(AllreduceTest, CostsAGatherPlusABroadcast) {
  Engine engine(now_platform(3), zero_latency());
  const auto report = engine.run([](Comm& comm) {
    (void)comm.allreduce(1, kMegabit, [](int a, int b) { return a + b; });
  });
  // Gather: workers deliver at d and 2d.  Bcast: root sends at 2d+d and
  // 2d+2d.  Total 4d.
  EXPECT_NEAR(report.total_time, 4 * kD, 1e-9);
}

TEST(AllreduceTest, ChargesCombineFlopsSequentiallyAtRoot) {
  Engine engine(now_platform(3), zero_latency());
  const auto report = engine.run([](Comm& comm) {
    (void)comm.allreduce(
        1, 8, [](int a, int b) { return a + b; }, 1'000'000);
  });
  // Two folds of 1 Mflop each at w = 0.001 s/Mflop.
  EXPECT_EQ(report.ranks[0].flops, 2'000'000u);
}

TEST(AllgatherTest, EveryRankSeesEveryValueInOrder) {
  Engine engine(now_platform(4), zero_latency());
  engine.run([](Comm& comm) {
    const auto all = comm.allgather(comm.rank() * 7, 16);
    ASSERT_EQ(all.size(), 4u);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(all[static_cast<std::size_t>(i)], i * 7);
    }
  });
}

TEST(AllgatherTest, BroadcastLegCarriesTheConcatenation) {
  Engine engine(now_platform(2), zero_latency());
  const auto report = engine.run([](Comm& comm) {
    (void)comm.allgather(comm.rank(), kMegabit);
  });
  // Gather: 1 megabit at d.  Bcast back: 2 megabits -> 2d more.
  EXPECT_NEAR(report.total_time, 3 * kD, 1e-9);
}

// --- the charging rule ------------------------------------------------------
// Each side of a transfer is charged from its own clock, and a payload that
// landed before its receiver arrived counts as comm at the receiver's
// clock.  So no rank is ever charged more compute plus wait than its clock
// has advanced, whatever the collective, platform or arrival order.

constexpr std::size_t kMiB = std::size_t{1} << 20;

enum class Kind { kBarrier, kBcast, kGather, kScatter, kExchange, kAllreduce };
enum class Arrival { kTogether, kStaggered, kRootLast };

/// Computes until the rank's clock reaches about `t` virtual seconds.
void compute_until(Comm& comm, double t) {
  const double w =
      comm.platform().cycle_time(static_cast<std::size_t>(comm.rank()));
  comm.compute(static_cast<std::uint64_t>(t / (w * 1e-6)));
}

/// kTogether: every rank at t = 0.  kStaggered: rank r at r + 1 seconds,
/// so the root comes first.  kRootLast: the same, but the root comes after
/// every other rank.
void arrive(Comm& comm, Arrival arrival) {
  const double slot = comm.rank() + 1.0;
  switch (arrival) {
    case Arrival::kTogether:
      return;
    case Arrival::kStaggered:
      compute_until(comm, slot);
      return;
    case Arrival::kRootLast:
      compute_until(comm, comm.is_root() ? comm.size() + 1.0 : slot);
      return;
  }
}

/// One collective of `kind`, moving 1 MiB per payload; the exchange is a
/// two-sided halo ring, as in MORPH's overlap borders.
void run_collective(Comm& comm, Kind kind) {
  const int p = comm.size();
  const int r = comm.rank();
  switch (kind) {
    case Kind::kBarrier:
      comm.barrier();
      return;
    case Kind::kBcast:
      (void)comm.bcast(comm.root(), 1, kMiB);
      return;
    case Kind::kGather:
      (void)comm.gather(comm.root(), r, kMiB);
      return;
    case Kind::kScatter: {
      std::vector<int> parts;
      if (comm.is_root()) parts.assign(static_cast<std::size_t>(p), 1);
      (void)comm.scatter(comm.root(), std::move(parts),
                         std::vector<std::size_t>(static_cast<std::size_t>(p),
                                                  kMiB));
      return;
    }
    case Kind::kExchange: {
      std::vector<std::tuple<int, int, std::size_t>> sends;
      sends.emplace_back((r + 1) % p, r, kMiB);
      sends.emplace_back((r + p - 1) % p, r, kMiB);
      (void)comm.exchange(std::move(sends));
      return;
    }
    case Kind::kAllreduce:
      (void)comm.allreduce(r, kMiB, [](int a, int b) { return a + b; });
      return;
  }
}

TEST(ChargingRuleTest, ComputePlusWaitNeverExceedsTheClock) {
  const std::pair<const char*, simnet::Platform> platforms[] = {
      {"fully-heterogeneous", simnet::fully_heterogeneous()},
      {"thunderhead-8", simnet::thunderhead(8)},
      {"thunderhead-5", simnet::thunderhead(5)},
  };
  const char* const kinds[] = {"barrier",  "bcast",    "gather",
                               "scatter",  "exchange", "allreduce"};
  const char* const arrivals[] = {"together", "staggered", "root-last"};
  for (const ExecMode mode :
       {ExecMode::kBoundedExecutor, ExecMode::kThreadPerRank}) {
    Options options;
    options.exec_mode = mode;
    options.enable_trace = true;
    for (const auto& [platform_name, platform] : platforms) {
      Engine engine(platform, options);
      for (int k = 0; k < 6; ++k) {
        for (int a = 0; a < 3; ++a) {
          SCOPED_TRACE(std::string(platform_name) + " " + kinds[k] + " " +
                       arrivals[a] +
                       (mode == ExecMode::kThreadPerRank ? " thread-per-rank"
                                                         : " executor"));
          const auto report = engine.run([&](Comm& comm) {
            arrive(comm, static_cast<Arrival>(a));
            run_collective(comm, static_cast<Kind>(k));
          });
          for (std::size_t r = 0; r < report.ranks.size(); ++r) {
            const RankStats& s = report.ranks[r];
            EXPECT_LE(s.compute_par + s.compute_seq + s.wait,
                      s.clock * (1.0 + 1e-12))
                << "rank " << r << ": wait " << s.wait << " s on a "
                << s.clock << " s clock";
          }
          // A wait of a rounding error is charged but logs no idle span:
          // every idle span has width.
          for (const TraceEvent& e : report.trace) {
            if (e.kind == TraceKind::kIdle) {
              EXPECT_GT(e.end, e.begin) << "rank " << e.rank << " at "
                                        << e.begin;
            }
          }
        }
      }
    }
  }
}

TEST(ChargingRuleTest, TreeBcastRootSendingBackToBackNeverWaits) {
  Engine engine(simnet::thunderhead(8));
  const auto report = engine.run([](Comm& comm) {
    (void)comm.bcast(0, 1, kMiB);
  });
  // The root sends in steps 1, 2 and 4, each starting as the last ends.
  const RankStats& root = report.ranks[0];
  EXPECT_EQ(root.comm, root.clock);
  EXPECT_NEAR(root.wait, 0.0, 1e-12 * root.clock);
}

TEST(ChargingRuleTest, LateGatherRootTakesLandedPayloadsWithoutWaiting) {
  Engine engine(simnet::fully_heterogeneous());
  const auto report = engine.run([](Comm& comm) {
    // Workers arrive a second apart, so their transfers leave gaps on the
    // root's NIC; the root computes past the last of them.
    compute_until(comm, comm.is_root() ? 100.0 : 1.0 * comm.rank());
    (void)comm.gather(0, comm.rank(), kMiB);
  });
  const RankStats& root = report.ranks[0];
  EXPECT_EQ(root.clock, root.compute_par);
  EXPECT_EQ(root.wait, 0.0);
  EXPECT_GT(root.comm, 0.0);
}

}  // namespace
}  // namespace hprs::vmpi
