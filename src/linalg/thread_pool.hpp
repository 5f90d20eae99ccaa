// Bounded, reusable worker pool for the blocked kernel fast paths.
//
// Determinism contract (DESIGN.md section 12): a parallel region hands the
// same body to `n` workers, each identified by a stable worker index; the
// kernels partition their output tiles by that index alone, every worker
// writes a disjoint slice of the output, and any cross-worker reduction is
// folded by the caller in ascending index order after the region completes.
// Which OS thread executes which index is irrelevant to the result, so
// threaded kernels are bit-identical to the serial fast path at every
// thread count -- HPRS_KERNEL_THREADS changes wall-clock time only, never
// results or the virtual-time model.
//
// The pool is process-wide and lazy: no threads exist until a region with
// more than one worker runs, threads are reused across regions, and the
// pool never exceeds the largest worker count ever requested.  Concurrent
// regions (e.g. several engine ranks inside threaded kernels at once)
// serialize on a region lock; bodies therefore never observe each other.
#pragma once

#include <cstddef>
#include <functional>

namespace hprs::linalg {

/// Number of workers threaded kernel regions use.  First call latches the
/// HPRS_KERNEL_THREADS environment variable (validated integer >= 1;
/// default 1 == serial); set_kernel_threads overrides it afterwards.
[[nodiscard]] std::size_t kernel_threads();
void set_kernel_threads(std::size_t n);

/// RAII override of the kernel thread count (tests and benchmarks).
class ScopedKernelThreads {
 public:
  explicit ScopedKernelThreads(std::size_t n);
  ~ScopedKernelThreads();
  ScopedKernelThreads(const ScopedKernelThreads&) = delete;
  ScopedKernelThreads& operator=(const ScopedKernelThreads&) = delete;

 private:
  std::size_t saved_;
};

/// Runs body(worker, workers) on workers = min(kernel_threads(),
/// max_workers) participants; the calling thread is worker 0 and blocks
/// until every worker returns.  workers == 1 runs inline with no pool
/// traffic.  An exception thrown by any body is rethrown here (first one
/// wins) after all workers finish.
void parallel_region(std::size_t max_workers,
                     const std::function<void(std::size_t, std::size_t)>& body);

/// Lanes of a region over `n` independent items: min(kernel_threads(), n),
/// at least 1.  Callers size their per-lane state with it before the region.
[[nodiscard]] std::size_t kernel_lanes(std::size_t n);

/// Cuts [0, n) into `lanes` contiguous blocks of ceil(n / lanes) items and
/// runs body(lane, begin, end) once per lane (a block may be empty) inside
/// one parallel_region; when the region runs fewer workers (a nested region
/// runs inline) a worker takes several lanes.  Lane l's block precedes lane
/// l + 1's, so folding per-lane results in ascending lane order with the
/// serial pass's comparisons reproduces that pass at any thread count.
void for_each_lane(
    std::size_t n, std::size_t lanes,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body);

}  // namespace hprs::linalg
