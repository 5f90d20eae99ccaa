// Bounded fiber executor for the virtual message-passing engine.
//
// Runs N rank bodies on at most min(N, hardware_concurrency) OS threads by
// giving each body its own ucontext fiber (stack + saved registers).  A
// blocked rank *parks*: it atomically publishes its wait, releases the
// engine lock, and switches back to the worker's scheduler context, which
// picks the next runnable fiber -- so a 256-rank simulation needs 256 small
// stacks but only as many kernel threads as the host has cores (zero extra
// threads on a single-core host, where the calling thread doubles as the
// only worker).
//
// Wakeups are targeted: notify(i) moves exactly fiber i to the ready queue
// (or absorbs into its in-flight park), replacing the engine's former
// notify_all thundering herd.
//
// Deadlock detection is exact rather than timer-based when possible: the
// executor owns every thread that could ever wake a parked fiber, so
// "ready queue empty, nothing running, not everyone done" proves no future
// wakeup can occur.  All parked fibers are then expired (park returns
// true) and re-check their predicates, which lets the engine poison the
// run immediately instead of waiting out the wall-clock deadline.  The
// per-park deadline remains as a safety net for fibers blocked while
// others still run.
//
// Host scheduling freedom (which worker resumes which fiber, in what
// order) never reaches the caller: parked fibers observe only their own
// notify/expiry, exactly like threads blocked on per-rank condition
// variables.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

namespace hprs::vmpi {

class Executor {
 public:
  using Clock = std::chrono::steady_clock;

  Executor();
  ~Executor();
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Runs every body to completion (bodies[i] is fiber/task i, on a 1 MiB
  /// stack) on at most `workers` threads, 0 meaning min(bodies,
  /// hardware_concurrency), and returns when all have finished.  Rethrows
  /// the first exception that escaped a body.  Must not be called from
  /// inside one of its own fibers.
  void run(std::vector<std::function<void()>> bodies, std::size_t workers);

  /// Fiber-only.  Parks the calling fiber: atomically (with respect to
  /// notify) registers the park, releases `lock`, and suspends.  `lock`
  /// is re-acquired before returning.  Returns true if the park expired --
  /// by `deadline`, or instantly via quiescent-deadlock detection -- rather
  /// than being notified; the caller must then re-check its predicate
  /// before treating the expiry as a deadlock.  Pass Clock::time_point::
  /// max() for no deadline.
  [[nodiscard]] bool park(std::unique_lock<std::mutex>& lock,
                          Clock::time_point deadline);

  /// Makes task i runnable if it is parked (or parking); no-op otherwise.
  /// Callable from any fiber or thread, including under the caller's own
  /// external lock (the engine calls it with the engine mutex held).
  void notify(std::size_t task);
  void notify_all();

 private:
  struct Task;
  struct Worker;

  void worker_loop();
  void resume(Worker& worker, Task& task);
  void switch_to_scheduler(Task& task);
  static void trampoline(unsigned hi, unsigned lo);

  /// Fiber identity for park(); saved/restored across nested executors.
  static thread_local Task* tls_current_task_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::unique_ptr<Task>> tasks_;  // stable addresses
  std::deque<Task*> ready_;
  std::size_t running_ = 0;  // fibers currently on a worker
  std::size_t done_ = 0;
  std::exception_ptr first_error_;

  // Scheduling telemetry, guarded by mu_ and published into obs::Metrics
  // (Domain::kHost -- all of it depends on host interleaving) at the end of
  // run().
  std::uint64_t obs_parks_ = 0;        // fibers suspended
  std::uint64_t obs_ready_moves_ = 0;  // notify/notify_all made a task ready
  std::uint64_t obs_expirations_ = 0;  // deadline or quiescence expiries
};

}  // namespace hprs::vmpi
