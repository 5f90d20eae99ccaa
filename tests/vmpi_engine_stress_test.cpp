// Many-rank stress test of the engine's two host execution modes.
//
// Runs a Thunderhead-scale (128-256 rank) program that mixes every
// communication primitive -- collectives (barrier, bcast, bcast_shared,
// gather, scatter, allreduce, exchange) and point-to-point send/recv --
// with tracing enabled, and asserts the full RunReport (clocks, every
// RankStats field, every trace event) is *bit-identical* across repeated
// runs, across engine reuse (scratch recycling), and across
// kBoundedExecutor vs kThreadPerRank.  This is the differential guarantee
// DESIGN.md §8 promises: host scheduling freedom never reaches the virtual
// clock.
//
// HPRS_STRESS_RANKS overrides the rank count (ThreadSanitizer runs use a
// smaller world so 2x-instrumented thread-per-rank mode stays fast).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/env.hpp"
#include "simnet/platform.hpp"
#include "vmpi/comm.hpp"
#include "vmpi/engine.hpp"

namespace hprs::vmpi {
namespace {

std::size_t stress_ranks() {
  return static_cast<std::size_t>(
      env_int_or("HPRS_STRESS_RANKS", 192, 2, 4096));
}

/// Mildly heterogeneous single-segment platform: cycle times vary by rank
/// so clocks, schedules, and trace events differ per rank.
simnet::Platform stress_platform(std::size_t n) {
  std::vector<simnet::ProcessorSpec> procs;
  procs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double w = 0.001 + 0.0001 * static_cast<double>(i % 7);
    procs.push_back(
        simnet::ProcessorSpec{"p" + std::to_string(i), "stress", w, 1024, 512,
                              0});
  }
  return simnet::Platform("stress", std::move(procs), {{10.0}});
}

Options stress_options(ExecMode mode) {
  Options o;
  o.deadlock_timeout_s = 60.0;
  o.enable_trace = true;
  o.exec_mode = mode;
  return o;
}

/// The stress program: every primitive, rank-dependent payloads.
void stress_program(Comm& comm) {
  const int p = comm.size();
  const int r = comm.rank();
  const int root = comm.root();

  comm.compute(1000ull * static_cast<std::uint64_t>(r + 1));

  // Zero-copy broadcast: all ranks alias one immutable payload.
  std::vector<double> payload;
  if (r == root) payload.assign(512, 1.25);
  const auto view =
      comm.bcast_shared(root, std::move(payload), 512 * sizeof(double));
  comm.compute(static_cast<std::uint64_t>((*view)[0] * 800.0));

  // Gather to root, transform, scatter back.
  auto gathered =
      comm.gather(root, static_cast<double>(r) * 0.5, sizeof(double));
  std::vector<double> parts;
  if (r == root) {
    parts = std::move(gathered);
    for (auto& v : parts) v += 1.0;
  }
  const std::vector<std::size_t> sizes(static_cast<std::size_t>(p),
                                       sizeof(double));
  const double mine = comm.scatter(root, std::move(parts), sizes);

  const double sum = comm.allreduce(
      mine, sizeof(double), [](double a, double b) { return a + b; }, 1);

  // Point-to-point between disjoint even/odd pairs: a rendezvous send and
  // some compute one way, the reply the other.
  const int peer = (r % 2 == 0) ? r + 1 : r - 1;
  if (peer >= 0 && peer < p) {
    if (r % 2 == 0) {
      comm.send(peer, sum + r, sizeof(double), /*tag=*/7);
      comm.compute(5000);
      const double back = comm.recv<double>(peer, /*tag=*/9);
      comm.compute(static_cast<std::uint64_t>(back) % 97 + 1);
    } else {
      const double got = comm.recv<double>(peer, /*tag=*/7);
      comm.send(peer, got * 2.0, sizeof(double), /*tag=*/9);
    }
  }

  // Ring-shift exchange: two messages out, two in.
  std::vector<std::tuple<int, std::int64_t, std::size_t>> sends;
  sends.emplace_back((r + 1) % p, static_cast<std::int64_t>(r), 8);
  sends.emplace_back((r + p - 1) % p, static_cast<std::int64_t>(r) * 3, 8);
  const auto received = comm.exchange(std::move(sends));
  for (const auto& [src, v] : received) {
    comm.compute(static_cast<std::uint64_t>(v % 13) + 1 +
                 static_cast<std::uint64_t>(src % 3));
  }

  comm.barrier();
}

void expect_bit_identical(const RunReport& a, const RunReport& b,
                          const char* label) {
  EXPECT_EQ(a.total_time, b.total_time) << label;
  EXPECT_EQ(a.root, b.root) << label;
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
    if (::testing::Test::HasFailure()) break;  // don't spam 192 ranks
  }
  ASSERT_EQ(a.trace.size(), b.trace.size()) << label;
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    const auto& x = a.trace[i];
    const auto& y = b.trace[i];
    EXPECT_EQ(x.rank, y.rank) << label << " event " << i;
    EXPECT_EQ(static_cast<int>(x.kind), static_cast<int>(y.kind))
        << label << " event " << i;
    EXPECT_EQ(x.begin, y.begin) << label << " event " << i;
    EXPECT_EQ(x.end, y.end) << label << " event " << i;
    EXPECT_EQ(x.amount, y.amount) << label << " event " << i;
    if (::testing::Test::HasFailure()) break;
  }
}

TEST(EngineStressTest, ExecutorModeBitIdenticalAcrossRunsAndEngineReuse) {
  const std::size_t n = stress_ranks();
  Engine engine(stress_platform(n), stress_options(ExecMode::kBoundedExecutor));
  const auto first = engine.run(stress_program);
  EXPECT_GT(first.total_time, 0.0);
  EXPECT_EQ(first.ranks.size(), n);
  EXPECT_FALSE(first.trace.empty());

  // Same engine again: exercises the recycled collective scratch buffers.
  const auto reused = engine.run(stress_program);
  expect_bit_identical(first, reused, "engine-reuse");

  // Fresh engine: cold scratch, same report.
  Engine fresh(stress_platform(n), stress_options(ExecMode::kBoundedExecutor));
  expect_bit_identical(first, fresh.run(stress_program), "fresh-engine");
}

TEST(EngineStressTest, ExecutorMatchesThreadPerRank) {
  const std::size_t n = stress_ranks();
  Engine exec(stress_platform(n), stress_options(ExecMode::kBoundedExecutor));
  Engine threads(stress_platform(n), stress_options(ExecMode::kThreadPerRank));
  expect_bit_identical(exec.run(stress_program), threads.run(stress_program),
                       "executor-vs-threads");
}

TEST(EngineStressTest, ForcedMultiWorkerMatches) {
  const std::size_t n = stress_ranks();
  Options narrow = stress_options(ExecMode::kBoundedExecutor);
  narrow.executor_workers = 3;  // force cross-worker fiber migration
  Engine a(stress_platform(n), stress_options(ExecMode::kBoundedExecutor));
  Engine b(stress_platform(n), narrow);
  expect_bit_identical(a.run(stress_program), b.run(stress_program),
                       "default-vs-narrow");
}

}  // namespace
}  // namespace hprs::vmpi
