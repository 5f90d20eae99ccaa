// Determinism and diagnostics of the deterministic fault layer
// (vmpi/fault.hpp): a fixed FaultPlan must produce bit-identical
// RunReports -- including the fault-event log and the recovery-overhead
// decomposition -- across repeated runs, engine reuse, and both host
// execution modes; an empty plan must leave try_send/try_recv programs
// bit-identical to their plain send/recv twins; a collective that lost a
// member resolves on a tolerant handle with the same dead set on every
// survivor and fails the run on a default one; invalid plans and options
// fail at Engine construction (and malformed --crash text at parse time);
// point-to-point keeps its dead-peer rules (plain ops toward a crashed peer
// fail the run, try ops report it after one heartbeat, and either kind
// toward a peer that finished without matching aborts the run); and
// deadlock diagnostics name the blocked ranks.
//
// HPRS_STRESS_RANKS overrides the rank count (ThreadSanitizer runs use a
// smaller world so 2x-instrumented thread-per-rank mode stays fast).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/env.hpp"
#include "common/error.hpp"
#include "simnet/platform.hpp"
#include "vmpi/comm.hpp"
#include "vmpi/engine.hpp"

namespace hprs::vmpi {
namespace {

std::size_t stress_ranks() {
  return static_cast<std::size_t>(
      env_int_or("HPRS_STRESS_RANKS", 192, 2, 4096));
}

/// Mildly heterogeneous single-segment platform (cycle times vary by rank).
simnet::Platform fault_platform(std::size_t n) {
  std::vector<simnet::ProcessorSpec> procs;
  procs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double w = 0.001 + 0.0001 * static_cast<double>(i % 7);
    procs.push_back(simnet::ProcessorSpec{"p" + std::to_string(i), "fault", w,
                                          1024, 512, 0});
  }
  return simnet::Platform("fault", std::move(procs), {{10.0}});
}

Options fault_options(ExecMode mode) {
  Options o;
  o.deadlock_timeout_s = 60.0;
  o.exec_mode = mode;
  return o;
}

/// A plan that exercises every fault type against the master/worker
/// program below: one rank dies immediately, two die mid-run, the only
/// segment degrades for a window, and p2p messages drop transiently.
FaultPlan mixed_plan(std::size_t n) {
  FaultPlan plan;
  plan.crashes.push_back({7 % static_cast<int>(n), 0.0});
  plan.crashes.push_back({static_cast<int>(n / 2), 0.02});
  plan.crashes.push_back({static_cast<int>(n - 1), 0.06});
  plan.degradations.push_back({0, 0, 3.0, 0.01, 0.05});
  plan.loss.probability = 0.02;
  plan.loss.seed = 42;
  return plan;
}

/// A miniature fault-tolerant master/worker protocol: three rounds of
/// command/reply driven by the root over try_send/try_recv, then a stop
/// message.  Workers use plain operations toward the immortal root.  This
/// is the communication shape of the scheduler's control plane
/// (sched/scheduler.cpp) without the numerics.
void master_worker_program(Comm& comm) {
  constexpr int kCmdTag = 1;
  constexpr int kResTag = 2;
  constexpr int kStop = -1;
  const int p = comm.size();
  const int root = comm.root();

  if (comm.rank() == root) {
    std::vector<bool> alive(static_cast<std::size_t>(p), true);
    for (int round = 0; round < 3; ++round) {
      std::vector<int> commanded;
      for (int r = 0; r < p; ++r) {
        if (r == root || !alive[static_cast<std::size_t>(r)]) continue;
        if (!comm.try_send(r, round, 64, kCmdTag)) {
          alive[static_cast<std::size_t>(r)] = false;
          continue;
        }
        commanded.push_back(r);
      }
      for (const int r : commanded) {
        const auto res = comm.try_recv<std::uint64_t>(r, kResTag);
        if (!res.has_value()) {
          alive[static_cast<std::size_t>(r)] = false;
          continue;
        }
        comm.compute(*res % 50 + 1, Phase::kSequential);
      }
    }
    for (int r = 0; r < p; ++r) {
      if (r == root || !alive[static_cast<std::size_t>(r)]) continue;
      (void)comm.try_send(r, kStop, 8, kCmdTag);
    }
  } else {
    while (true) {
      const int cmd = comm.recv<int>(root, kCmdTag);
      if (cmd == kStop) return;
      comm.compute(2000 + 13ull * static_cast<std::uint64_t>(comm.rank()));
      const auto result =
          static_cast<std::uint64_t>(cmd) * 1000 +
          static_cast<std::uint64_t>(comm.rank());
      comm.send(root, result, 32, kResTag);
    }
  }
}

/// Like master_worker_program with an empty plan, but using the plain
/// blocking operations: with no faults the try variants must be
/// indistinguishable from these on the wire.
void master_worker_plain(Comm& comm) {
  constexpr int kCmdTag = 1;
  constexpr int kResTag = 2;
  constexpr int kStop = -1;
  const int p = comm.size();
  const int root = comm.root();

  if (comm.rank() == root) {
    for (int round = 0; round < 3; ++round) {
      for (int r = 0; r < p; ++r) {
        if (r == root) continue;
        comm.send(r, round, 64, kCmdTag);
      }
      for (int r = 0; r < p; ++r) {
        if (r == root) continue;
        const auto res = comm.recv<std::uint64_t>(r, kResTag);
        comm.compute(res % 50 + 1, Phase::kSequential);
      }
    }
    for (int r = 0; r < p; ++r) {
      if (r == root) continue;
      comm.send(r, kStop, 8, kCmdTag);
    }
  } else {
    while (true) {
      const int cmd = comm.recv<int>(root, kCmdTag);
      if (cmd == kStop) return;
      comm.compute(2000 + 13ull * static_cast<std::uint64_t>(comm.rank()));
      const auto result =
          static_cast<std::uint64_t>(cmd) * 1000 +
          static_cast<std::uint64_t>(comm.rank());
      comm.send(root, result, 32, kResTag);
    }
  }
}

void expect_reports_bit_identical(const RunReport& a, const RunReport& b,
                                  const char* label) {
  EXPECT_EQ(a.total_time, b.total_time) << label;
  ASSERT_EQ(a.ranks.size(), b.ranks.size()) << label;
  for (std::size_t r = 0; r < a.ranks.size(); ++r) {
    const auto& x = a.ranks[r];
    const auto& y = b.ranks[r];
    EXPECT_EQ(x.clock, y.clock) << label << " rank " << r;
    EXPECT_EQ(x.compute_par, y.compute_par) << label << " rank " << r;
    EXPECT_EQ(x.compute_seq, y.compute_seq) << label << " rank " << r;
    EXPECT_EQ(x.comm, y.comm) << label << " rank " << r;
    EXPECT_EQ(x.wait, y.wait) << label << " rank " << r;
    EXPECT_EQ(x.flops, y.flops) << label << " rank " << r;
    EXPECT_EQ(x.bytes_sent, y.bytes_sent) << label << " rank " << r;
    EXPECT_EQ(x.bytes_received, y.bytes_received) << label << " rank " << r;
    if (::testing::Test::HasFailure()) break;
  }
  ASSERT_EQ(a.fault_events.size(), b.fault_events.size()) << label;
  for (std::size_t i = 0; i < a.fault_events.size(); ++i) {
    const auto& x = a.fault_events[i];
    const auto& y = b.fault_events[i];
    EXPECT_EQ(static_cast<int>(x.kind), static_cast<int>(y.kind))
        << label << " event " << i;
    EXPECT_EQ(x.rank, y.rank) << label << " event " << i;
    EXPECT_EQ(x.peer, y.peer) << label << " event " << i;
    EXPECT_EQ(x.time_s, y.time_s) << label << " event " << i;
    EXPECT_EQ(x.attempt, y.attempt) << label << " event " << i;
    if (::testing::Test::HasFailure()) break;
  }
  EXPECT_EQ(a.recovery.detection_s, b.recovery.detection_s) << label;
  EXPECT_EQ(a.recovery.redistribution_s, b.recovery.redistribution_s) << label;
  EXPECT_EQ(a.recovery.recomputed_s, b.recovery.recomputed_s) << label;
  EXPECT_EQ(a.recovery.recomputed_flops, b.recovery.recomputed_flops) << label;
  EXPECT_EQ(a.recovery.crashes, b.recovery.crashes) << label;
  EXPECT_EQ(a.recovery.detections, b.recovery.detections) << label;
  EXPECT_EQ(a.recovery.messages_lost, b.recovery.messages_lost) << label;
}

TEST(VmpiFaultTest, TryOpsWithEmptyPlanMatchPlainOps) {
  const std::size_t n = stress_ranks();
  Engine a(fault_platform(n), fault_options(ExecMode::kBoundedExecutor));
  Engine b(fault_platform(n), fault_options(ExecMode::kBoundedExecutor));
  const auto tried = a.run(master_worker_program);
  const auto plain = b.run(master_worker_plain);
  EXPECT_TRUE(tried.fault_events.empty());
  EXPECT_EQ(tried.recovery.total_overhead_s(), 0.0);
  expect_reports_bit_identical(tried, plain, "try-vs-plain");
}

TEST(VmpiFaultTest, FaultedReportsBitIdenticalAcrossRunsReuseAndModes) {
  const std::size_t n = stress_ranks();
  Options opts = fault_options(ExecMode::kBoundedExecutor);
  opts.fault_plan = mixed_plan(n);

  Engine engine(fault_platform(n), opts);
  const auto first = engine.run(master_worker_program);
  EXPECT_EQ(first.recovery.crashes, 3);
  EXPECT_GE(first.recovery.detections, 3);
  EXPECT_GT(first.recovery.detection_s, 0.0);
  EXPECT_FALSE(first.fault_events.empty());

  // Same engine again: recycled scratch, same faults.
  expect_reports_bit_identical(first, engine.run(master_worker_program),
                               "engine-reuse");

  // Fresh engine, same plan.
  Engine fresh(fault_platform(n), opts);
  expect_reports_bit_identical(first, fresh.run(master_worker_program),
                               "fresh-engine");

  // Thread-per-rank mode: host scheduling differs wildly, reports must not.
  Options tpr = opts;
  tpr.exec_mode = ExecMode::kThreadPerRank;
  Engine threads(fault_platform(n), tpr);
  expect_reports_bit_identical(first, threads.run(master_worker_program),
                               "executor-vs-threads");
}

TEST(VmpiFaultTest, MessageLossEventsAreLoggedAndDeterministic) {
  const std::size_t n = 16;
  Options opts = fault_options(ExecMode::kBoundedExecutor);
  opts.fault_plan.loss.probability = 0.5;
  opts.fault_plan.loss.seed = 7;

  Engine a(fault_platform(n), opts);
  const auto first = a.run(master_worker_program);
  EXPECT_GT(first.recovery.messages_lost, 0u);
  bool saw_loss_event = false;
  for (const auto& e : first.fault_events) {
    if (e.kind == FaultEventKind::kMessageLoss) saw_loss_event = true;
  }
  EXPECT_TRUE(saw_loss_event);

  Options tpr = opts;
  tpr.exec_mode = ExecMode::kThreadPerRank;
  Engine b(fault_platform(n), tpr);
  expect_reports_bit_identical(first, b.run(master_worker_program),
                               "loss-across-modes");
}

TEST(VmpiFaultTest, CrashPoisonsFullWorldCollectives) {
  Options opts = fault_options(ExecMode::kBoundedExecutor);
  opts.fault_plan.crashes.push_back({1, 0.0});
  Engine engine(fault_platform(8), opts);
  try {
    (void)engine.run([](Comm& comm) {
      comm.compute(1000);
      comm.barrier();
    });
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("crash"), std::string::npos)
        << e.what();
  }
}

/// What one rank observed around a failure-aware collective.
struct Seen {
  bool survived = false;
  std::vector<int> failed;
  std::uint64_t value = 0;
  std::vector<std::uint64_t> gathered;
  int shrunk_root = -1;  ///< world rank of the shrunken communicator's root
  int shrunk_size = 0;
  std::uint64_t shrunk_id = 0;
  std::vector<int> failed_after;  ///< after a barrier on the survivors

  bool operator==(const Seen&) const = default;
};

/// Eight ranks rooted at rank 2 run one collective on a tolerant handle.
/// Rank 5 dies before it (at t = 0, on its first operation); rank 6 dies
/// at its arrival, while the others wait in the collective.
RunReport run_failing_collective(CollectiveKind kind, ExecMode mode,
                                 std::vector<Seen>& seen) {
  Options opts = fault_options(mode);
  opts.root = 2;
  opts.fault_plan.crashes.push_back({5, 0.0});
  opts.fault_plan.crashes.push_back({6, 1e-6});
  Engine engine(fault_platform(8), opts);
  seen.assign(8, Seen{});
  return engine.run([&](Comm& world) {
    Comm comm = world.tolerant();
    const int me = comm.rank();
    comm.compute(1000 * static_cast<std::uint64_t>(1 + me));
    Seen& s = seen[static_cast<std::size_t>(me)];
    const std::uint64_t mine = 100 + static_cast<std::uint64_t>(me);
    switch (kind) {
      case CollectiveKind::kBcast:
        s.value = comm.bcast(comm.root(), comm.is_root() ? 42 : mine, 8);
        break;
      case CollectiveKind::kGather:
        s.gathered = comm.gather(comm.root(), mine, 8);
        break;
      default: {
        std::vector<std::uint64_t> parts;
        if (comm.is_root()) {
          for (int r = 0; r < comm.size(); ++r) parts.push_back(100 + r);
        }
        const std::vector<std::size_t> bytes(parts.size(), 8);
        s.value = comm.scatter(comm.root(), std::move(parts), bytes);
        break;
      }
    }
    s.survived = true;
    s.failed = comm.failed();
    Comm survivors = comm.shrink();
    s.shrunk_root = survivors.world_rank_of(survivors.root());
    s.shrunk_size = survivors.size();
    s.shrunk_id = survivors.group_id();
    survivors.barrier();
    s.failed_after = survivors.failed();
  });
}

TEST(VmpiFaultTest, FailureAwareCollectivesAgreeOnTheDeadSet) {
  for (const CollectiveKind kind :
       {CollectiveKind::kBcast, CollectiveKind::kGather,
        CollectiveKind::kScatter}) {
    SCOPED_TRACE("collective kind " + std::to_string(static_cast<int>(kind)));
    std::vector<Seen> first;
    const RunReport report =
        run_failing_collective(kind, ExecMode::kBoundedExecutor, first);
    EXPECT_EQ(report.recovery.crashes, 2);
    EXPECT_EQ(report.recovery.detections, 6);  // one heartbeat per survivor
    for (int r = 0; r < 8; ++r) {
      const Seen& s = first[static_cast<std::size_t>(r)];
      SCOPED_TRACE("rank " + std::to_string(r));
      EXPECT_EQ(s.survived, r != 5 && r != 6);
      if (!s.survived) continue;
      EXPECT_EQ(s.failed, (std::vector<int>{5, 6}));
      EXPECT_EQ(s.shrunk_root, 2);
      EXPECT_EQ(s.shrunk_size, 6);
      EXPECT_EQ(s.shrunk_id, first[2].shrunk_id);
      EXPECT_NE(s.shrunk_id, 0u);
      EXPECT_TRUE(s.failed_after.empty());
      if (kind == CollectiveKind::kBcast) {
        EXPECT_EQ(s.value, 42u);
      } else if (kind == CollectiveKind::kScatter) {
        EXPECT_EQ(s.value, 100u + r);
      } else if (r == 2) {
        // Live members' data is delivered; dead members' slots are empty.
        EXPECT_EQ(s.gathered, (std::vector<std::uint64_t>{100, 101, 102, 103,
                                                          104, 0, 0, 107}));
      }
    }

    std::vector<Seen> again;
    expect_reports_bit_identical(
        report, run_failing_collective(kind, ExecMode::kBoundedExecutor, again),
        "repeat");
    EXPECT_EQ(first, again);
    std::vector<Seen> threads;
    expect_reports_bit_identical(
        report, run_failing_collective(kind, ExecMode::kThreadPerRank, threads),
        "executor-vs-threads");
    EXPECT_EQ(first, threads);
  }
}

TEST(VmpiFaultTest, CollectivesOfADeadRootDeliverNothing) {
  // The root dies before a bcast (shared and plain), a gather and a
  // scatter: the survivors still resolve each, learn the root is dead, get
  // nothing from it -- a value-initialized T, not their own argument --
  // and cannot shrink.
  Options opts = fault_options(ExecMode::kBoundedExecutor);
  opts.root = 2;
  opts.fault_plan.crashes.push_back({2, 0.0});
  Engine engine(fault_platform(4), opts);
  std::vector<int> checked(4, 0);
  const RunReport report = engine.run([&](Comm& world) {
    Comm comm = world.tolerant();
    comm.compute(1000);
    EXPECT_EQ(comm.bcast_shared(comm.root(), std::uint64_t{7}, 8), nullptr);
    EXPECT_EQ(comm.failed(), (std::vector<int>{2}));
    EXPECT_EQ(comm.bcast(comm.root(), std::uint64_t{7}, 8), std::uint64_t{0});
    EXPECT_EQ(comm.failed(), (std::vector<int>{2}));
    EXPECT_TRUE(comm.gather(comm.root(), std::uint64_t{1}, 8).empty());
    EXPECT_EQ(comm.failed(), (std::vector<int>{2}));
    EXPECT_EQ(comm.scatter(comm.root(), std::vector<std::uint64_t>{}, {}),
              std::uint64_t{0});
    EXPECT_EQ(comm.failed(), (std::vector<int>{2}));
    EXPECT_THROW((void)comm.shrink(), Error);
    checked[static_cast<std::size_t>(comm.rank())] = 1;
  });
  EXPECT_EQ(checked, (std::vector<int>{1, 1, 0, 1}));
  EXPECT_EQ(report.recovery.crashes, 1);
  EXPECT_EQ(report.recovery.detections, 12);  // 3 survivors x 4 collectives
  for (const auto& s : report.ranks) EXPECT_EQ(s.bytes_received, 0u);
}

TEST(VmpiFaultTest, ExchangeDropsADeadMembersTraffic) {
  // Rank 3 of 5 dies before an all-to-all exchange.  Every survivor
  // receives exactly the live senders' packets, tagged with their source,
  // in source order; the packets addressed to rank 3 are dropped.
  Options opts = fault_options(ExecMode::kBoundedExecutor);
  opts.fault_plan.crashes.push_back({3, 0.0});
  Engine engine(fault_platform(5), opts);
  std::vector<std::vector<std::pair<int, int>>> received(5);
  const RunReport report = engine.run([&](Comm& world) {
    Comm comm = world.tolerant();
    comm.compute(1000);
    // Sent in descending destination order; delivered by source.
    std::vector<std::tuple<int, int, std::size_t>> sends;
    for (int dst = comm.size() - 1; dst >= 0; --dst) {
      if (dst != comm.rank()) {
        sends.emplace_back(dst, 10 * comm.rank() + dst, 8);
      }
    }
    received[static_cast<std::size_t>(comm.rank())] =
        comm.exchange(std::move(sends));
    EXPECT_EQ(comm.failed(), (std::vector<int>{3}));
  });
  for (int r = 0; r < 5; ++r) {
    std::vector<std::pair<int, int>> want;
    for (int src = 0; src < 5 && r != 3; ++src) {
      if (src != r && src != 3) want.emplace_back(src, 10 * src + r);
    }
    EXPECT_EQ(received[static_cast<std::size_t>(r)], want) << "rank " << r;
  }
  // Four live senders, three live destinations each, 8 bytes apiece.
  std::uint64_t sent = 0;
  for (const auto& s : report.ranks) sent += s.bytes_sent;
  EXPECT_EQ(sent, 4u * 3u * 8u);
  EXPECT_EQ(report.ranks[3].bytes_received, 0u);
  EXPECT_EQ(report.recovery.detections, 4);
}

TEST(VmpiFaultTest, ParseCrashesRejectsMalformedEntriesByName) {
  const std::vector<RankCrash> ok = parse_crashes("3@0.05,7@1e-2");
  ASSERT_EQ(ok.size(), 2u);
  EXPECT_EQ(ok[0].rank, 3);
  EXPECT_EQ(ok[0].time_s, 0.05);
  EXPECT_EQ(ok[1].rank, 7);
  EXPECT_EQ(ok[1].time_s, 0.01);
  for (const std::string bad :
       {"3x@0.05", "2@0.1s", "2@0.1,", "", "@0.1", "3@", "3@0.1,,4@0.2",
        "3"}) {
    try {
      (void)parse_crashes(bad);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("crash entry"), std::string::npos)
          << e.what();
    }
  }
  try {
    (void)parse_crashes("1@0.5,2@0.1s");
    ADD_FAILURE() << "accepted a trailing unit";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("'2@0.1s'"), std::string::npos)
        << e.what();
  }
}

TEST(VmpiFaultTest, InvalidPlansFailAtEngineConstruction) {
  const auto platform = fault_platform(4);
  {
    Options o;
    o.fault_plan.crashes.push_back({9, 0.0});  // rank out of range
    EXPECT_THROW(Engine(platform, o), Error);
  }
  {
    Options o;
    o.fault_plan.crashes.push_back({1, -1.0});  // negative crash time
    EXPECT_THROW(Engine(platform, o), Error);
  }
  {
    Options o;
    o.fault_plan.degradations.push_back({0, 5, 2.0, 0.0, 1.0});  // bad segment
    EXPECT_THROW(Engine(platform, o), Error);
  }
  {
    Options o;
    o.fault_plan.degradations.push_back({0, 0, 2.0, 1.0, 0.5});  // end < begin
    EXPECT_THROW(Engine(platform, o), Error);
  }
  {
    Options o;
    o.fault_plan.loss.probability = 1.5;  // not a probability
    EXPECT_THROW(Engine(platform, o), Error);
  }
  {
    Options o;
    o.fault_detection_s = -0.1;  // negative heartbeat
    EXPECT_THROW(Engine(platform, o), Error);
  }
  {
    Options o;
    o.deadlock_timeout_s = 0.0;  // must be positive
    EXPECT_THROW(Engine(platform, o), Error);
  }
}

/// Runs a two-rank program whose rank 1 computes once, then dies at its
/// next operation (planned crash at 1e-6 s, clock 1.1e-6 s) or, with
/// `crash` false, finishes without communicating; rank 0 runs `op` toward
/// it under tag 3.
RunReport run_toward_rank_one(ExecMode mode, bool crash,
                              const std::function<void(Comm&)>& op) {
  Options opts = fault_options(mode);
  if (crash) opts.fault_plan.crashes.push_back({1, 1e-6});
  Engine engine(fault_platform(2), opts);
  return engine.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      op(comm);
    } else {
      comm.compute(1000);
      if (crash) comm.compute(1000);
    }
  });
}

/// The hprs::Error message of a run that must abort.
std::string abort_message(ExecMode mode, bool crash,
                          const std::function<void(Comm&)>& op) {
  try {
    (void)run_toward_rank_one(mode, crash, op);
  } catch (const Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected the run to abort";
  return {};
}

constexpr ExecMode kBothModes[] = {ExecMode::kBoundedExecutor,
                                   ExecMode::kThreadPerRank};

TEST(VmpiFaultTest, PlainP2pTowardACrashedPeerFailsTheRun) {
  for (const ExecMode mode : kBothModes) {
    SCOPED_TRACE("mode " + std::to_string(static_cast<int>(mode)));
    const std::string sent = abort_message(
        mode, true, [](Comm& comm) { comm.send(1, 7, 8, /*tag=*/3); });
    const std::string received = abort_message(
        mode, true, [](Comm& comm) { (void)comm.recv<int>(1, /*tag=*/3); });
    for (const auto& [what, op] :
         {std::pair{sent, "send involving rank 1 (tag 3)"},
          std::pair{received, "recv involving rank 1 (tag 3)"}}) {
      EXPECT_NE(what.find(op), std::string::npos) << what;
      EXPECT_NE(what.find("rank 1 crashed (fail-stop)"), std::string::npos)
          << what;
      EXPECT_NE(what.find("blocked ranks:"), std::string::npos) << what;
    }
  }
}

TEST(VmpiFaultTest, TryP2pTowardACrashedPeerChargesOneDetection) {
  for (const ExecMode mode : kBothModes) {
    SCOPED_TRACE("mode " + std::to_string(static_cast<int>(mode)));
    bool sent = true;
    std::optional<int> received = 0;
    double after_send = 0.0;
    double after_recv = 0.0;
    const RunReport send_report =
        run_toward_rank_one(mode, true, [&](Comm& comm) {
          sent = comm.try_send(1, 7, 8, /*tag=*/3);
          after_send = comm.now();
        });
    const RunReport recv_report =
        run_toward_rank_one(mode, true, [&](Comm& comm) {
          received = comm.try_recv<int>(1, /*tag=*/3);
          after_recv = comm.now();
        });
    EXPECT_FALSE(sent);
    EXPECT_FALSE(received.has_value());
    for (const auto& [report, after] :
         {std::pair{&send_report, after_send},
          std::pair{&recv_report, after_recv}}) {
      EXPECT_EQ(report->recovery.crashes, 1);
      EXPECT_EQ(report->recovery.detections, 1);
      // Rank 0 started waiting at t = 0, before the death: the heartbeat
      // runs from the death.
      const double death = report->ranks[1].clock;
      EXPECT_GT(death, 0.0);
      EXPECT_EQ(after, death + fault_options(mode).fault_detection_s);
      EXPECT_EQ(report->recovery.detection_s, after);
    }
  }
}

TEST(VmpiFaultTest, TryP2pTowardAFinishedPeerAbortsTheRun) {
  for (const ExecMode mode : kBothModes) {
    SCOPED_TRACE("mode " + std::to_string(static_cast<int>(mode)));
    for (const std::string& what :
         {abort_message(mode, false,
                        [](Comm& comm) {
                          (void)comm.try_send(1, 7, 8, /*tag=*/3);
                        }),
          abort_message(mode, false, [](Comm& comm) {
            (void)comm.try_recv<int>(1, /*tag=*/3);
          })}) {
      EXPECT_NE(what.find("rank 1 finished without matching it"),
                std::string::npos)
          << what;
    }
  }
}

TEST(VmpiFaultTest, DeadlockDiagnosticsNameTheBlockedRanks) {
  Options opts = fault_options(ExecMode::kBoundedExecutor);
  opts.deadlock_timeout_s = 0.2;
  Engine engine(fault_platform(2), opts);
  try {
    // Circular wait: both ranks receive a message nobody ever sends.
    (void)engine.run([](Comm& comm) {
      const int peer = 1 - comm.rank();
      (void)comm.recv<int>(peer, /*tag=*/5);
    });
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("blocked ranks:"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace hprs::vmpi
