#include "linalg/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <vector>

#include "common/error.hpp"

namespace hprs::linalg {
namespace {

TEST(ThreadPoolTest, DefaultsToOneThread) {
  // The suite never exports HPRS_KERNEL_THREADS, so the latched default
  // applies (tests that want more use ScopedKernelThreads).
  EXPECT_GE(kernel_threads(), 1u);
}

TEST(ThreadPoolTest, ScopedOverrideRestoresOnExit) {
  const std::size_t before = kernel_threads();
  {
    const ScopedKernelThreads scoped(5);
    EXPECT_EQ(kernel_threads(), 5u);
  }
  EXPECT_EQ(kernel_threads(), before);
}

TEST(ThreadPoolTest, RejectsZeroThreads) {
  EXPECT_THROW(set_kernel_threads(0), Error);
}

TEST(ThreadPoolTest, SingleWorkerRunsInline) {
  const ScopedKernelThreads scoped(1);
  std::size_t calls = 0;
  parallel_region(8, [&](std::size_t worker, std::size_t workers) {
    EXPECT_EQ(worker, 0u);
    EXPECT_EQ(workers, 1u);
    ++calls;
  });
  EXPECT_EQ(calls, 1u);
}

TEST(ThreadPoolTest, EveryWorkerIndexRunsExactlyOnce) {
  const ScopedKernelThreads scoped(4);
  std::vector<std::atomic<int>> hits(4);
  parallel_region(100, [&](std::size_t worker, std::size_t workers) {
    EXPECT_EQ(workers, 4u);
    hits[worker].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, MaxWorkersCapsTheRegion) {
  const ScopedKernelThreads scoped(8);
  std::atomic<std::size_t> seen_workers{0};
  parallel_region(3, [&](std::size_t, std::size_t workers) {
    seen_workers.store(workers);
  });
  EXPECT_EQ(seen_workers.load(), 3u);
}

TEST(ThreadPoolTest, DisjointOwnershipProducesTheSerialSum) {
  // The canonical usage pattern: each worker owns a contiguous block of a
  // shared output; the result must match the serial fill at any width.
  constexpr std::size_t kN = 1013;
  std::vector<double> serial(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    serial[i] = static_cast<double>(i) * 0.5;
  }
  for (const std::size_t threads : {2u, 4u, 7u}) {
    const ScopedKernelThreads scoped(threads);
    std::vector<double> out(kN, -1.0);
    parallel_region(kN, [&](std::size_t worker, std::size_t workers) {
      const std::size_t per = (kN + workers - 1) / workers;
      const std::size_t b = worker * per;
      const std::size_t e = std::min(kN, b + per);
      for (std::size_t i = b; i < e; ++i) {
        out[i] = static_cast<double>(i) * 0.5;
      }
    });
    EXPECT_EQ(out, serial) << threads << " threads";
  }
}

TEST(ThreadPoolTest, NestedRegionsRunInlineWithoutDeadlock) {
  const ScopedKernelThreads scoped(4);
  std::atomic<int> inner_calls{0};
  parallel_region(4, [&](std::size_t, std::size_t) {
    parallel_region(4, [&](std::size_t worker, std::size_t workers) {
      // A nested region must not recurse into the pool: single worker.
      EXPECT_EQ(worker, 0u);
      EXPECT_EQ(workers, 1u);
      inner_calls.fetch_add(1);
    });
  });
  EXPECT_EQ(inner_calls.load(), 4);
}

TEST(ThreadPoolTest, WorkerExceptionPropagatesToTheCaller) {
  const ScopedKernelThreads scoped(4);
  EXPECT_THROW(
      parallel_region(4,
                      [&](std::size_t worker, std::size_t) {
                        if (worker == 2) throw Error("boom");
                      }),
      Error);
  // The pool stays usable after a throwing region.
  std::atomic<int> calls{0};
  parallel_region(4, [&](std::size_t, std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 4);
}

TEST(ThreadPoolTest, BackToBackRegionsReuseThePool) {
  const ScopedKernelThreads scoped(4);
  std::atomic<long> total{0};
  for (int round = 0; round < 50; ++round) {
    parallel_region(4, [&](std::size_t worker, std::size_t) {
      total.fetch_add(static_cast<long>(worker) + 1);
    });
  }
  EXPECT_EQ(total.load(), 50 * (1 + 2 + 3 + 4));
}

TEST(ThreadPoolTest, LanesCoverEveryItemOnceInAscendingBlocks) {
  // Top level and nested (where one worker takes every lane), with more
  // lanes than items, uneven blocks and no items at all.
  const ScopedKernelThreads scoped(4);
  for (const bool nested : {false, true}) {
    for (const std::size_t n : {0u, 3u, 10u, 64u}) {
      const std::size_t lanes = kernel_lanes(n);
      EXPECT_EQ(lanes, std::max<std::size_t>(1, std::min<std::size_t>(4, n)));
      std::vector<std::size_t> owner(n, lanes);
      std::vector<int> visits(n, 0);
      std::vector<std::size_t> ends(lanes, 0);
      const auto run = [&] {
        for_each_lane(n, lanes, [&](std::size_t lane, std::size_t begin,
                                    std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            owner[i] = lane;
            ++visits[i];
          }
          ends[lane] = end;
        });
      };
      if (nested) {
        parallel_region(4, [&](std::size_t worker, std::size_t) {
          if (worker == 0) run();
        });
      } else {
        run();
      }
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(visits[i], 1) << "item " << i;
        if (i > 0) {
          EXPECT_LE(owner[i - 1], owner[i]) << "item " << i;
        }
      }
      EXPECT_EQ(ends.back(), n) << n << " items, nested " << nested;
    }
  }
}

}  // namespace
}  // namespace hprs::linalg
