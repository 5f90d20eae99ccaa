#include "linalg/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/env.hpp"
#include "common/error.hpp"

namespace hprs::linalg {

namespace {

/// True while this thread is executing a region body.  A nested
/// parallel_region (e.g. osp_argmax_sweep's workers calling dot_strip)
/// runs inline as a single worker: the enclosing region already owns the
/// parallelism, and recursing into the pool would deadlock on the region
/// lock.  Inline nesting is bit-identical by construction (worker 0 of 1
/// is the serial sweep).
thread_local bool t_in_region = false;

std::atomic<std::size_t>& thread_count_flag() {
  static std::atomic<std::size_t> count{static_cast<std::size_t>(
      env_int_or("HPRS_KERNEL_THREADS", 1, 1, 1024))};
  return count;
}

/// The process-wide pool.  Workers park on a generation counter; a region
/// publishes a job, bumps the generation, and participates as worker 0
/// while parked threads claim the remaining indices.  Leaked on purpose:
/// worker threads may still be parked at static destruction time, and
/// tearing the pool down then would race their condition-variable waits.
class KernelPool {
 public:
  static KernelPool& instance() {
    static KernelPool* pool = new KernelPool;
    return *pool;
  }

  void run(std::size_t workers,
           const std::function<void(std::size_t, std::size_t)>& body) {
    // Whole regions serialize: concurrent callers (several engine ranks in
    // threaded kernels at once) queue here rather than interleave jobs.
    std::unique_lock<std::mutex> region(region_mutex_);
    ensure_threads(workers - 1);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      body_ = &body;
      job_workers_ = workers;
      next_index_ = 1;
      outstanding_ = workers - 1;
      ++generation_;
    }
    work_cv_.notify_all();
    t_in_region = true;
    try {
      body(0, workers);
    } catch (...) {
      note_exception(std::current_exception());
    }
    t_in_region = false;
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] { return outstanding_ == 0; });
    body_ = nullptr;
    if (first_error_ != nullptr) {
      std::exception_ptr e = first_error_;
      first_error_ = nullptr;
      lock.unlock();
      std::rethrow_exception(e);
    }
  }

 private:
  KernelPool() = default;

  void ensure_threads(std::size_t needed) {
    std::lock_guard<std::mutex> lock(mutex_);
    while (threads_.size() < needed) {
      threads_.emplace_back([this] { worker_loop(); });
    }
  }

  void note_exception(std::exception_ptr e) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (first_error_ == nullptr) first_error_ = e;
  }

  void worker_loop() {
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      work_cv_.wait(lock, [&] { return generation_ != seen; });
      seen = generation_;
      // A pool larger than the current region parks the surplus threads.
      if (body_ == nullptr || next_index_ >= job_workers_) continue;
      const std::size_t index = next_index_++;
      const std::size_t workers = job_workers_;
      const auto* body = body_;
      lock.unlock();
      t_in_region = true;
      try {
        (*body)(index, workers);
      } catch (...) {
        note_exception(std::current_exception());
      }
      t_in_region = false;
      lock.lock();
      if (--outstanding_ == 0) done_cv_.notify_all();
    }
  }

  std::mutex region_mutex_;
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> threads_;
  const std::function<void(std::size_t, std::size_t)>* body_ = nullptr;
  std::size_t job_workers_ = 0;
  std::size_t next_index_ = 0;
  std::size_t outstanding_ = 0;
  std::uint64_t generation_ = 0;
  std::exception_ptr first_error_;
};

}  // namespace

std::size_t kernel_threads() {
  return thread_count_flag().load(std::memory_order_relaxed);
}

void set_kernel_threads(std::size_t n) {
  HPRS_REQUIRE(n >= 1, "kernel thread count must be >= 1");
  thread_count_flag().store(n, std::memory_order_relaxed);
}

ScopedKernelThreads::ScopedKernelThreads(std::size_t n)
    : saved_(kernel_threads()) {
  set_kernel_threads(n);
}

ScopedKernelThreads::~ScopedKernelThreads() { set_kernel_threads(saved_); }

void parallel_region(
    std::size_t max_workers,
    const std::function<void(std::size_t, std::size_t)>& body) {
  const std::size_t workers =
      std::max<std::size_t>(1, std::min(kernel_threads(), max_workers));
  if (workers == 1 || t_in_region) {
    body(0, 1);
    return;
  }
  KernelPool::instance().run(workers, body);
}

std::size_t kernel_lanes(std::size_t n) {
  return std::max<std::size_t>(1, std::min(kernel_threads(), n));
}

void for_each_lane(
    std::size_t n, std::size_t lanes,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  HPRS_ASSERT(lanes >= 1);
  const std::size_t per = (n + lanes - 1) / lanes;
  parallel_region(lanes, [&](std::size_t worker, std::size_t workers) {
    for (std::size_t lane = worker; lane < lanes; lane += workers) {
      const std::size_t begin = std::min(n, lane * per);
      body(lane, begin, std::min(n, begin + per));
    }
  });
}

}  // namespace hprs::linalg
