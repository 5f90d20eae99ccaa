#include "vmpi/executor.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <thread>
#include <utility>

#include <cxxabi.h>
#include <ucontext.h>

#include "common/error.hpp"
#include "obs/metrics.hpp"

// --- sanitizer fiber support ------------------------------------------------
// Stack-switching confuses ASan (stack bounds) and TSan (which "thread" is
// running) unless every switch is announced.  The hooks compile to no-ops in
// plain builds.
#if defined(__SANITIZE_ADDRESS__)
#define HPRS_ASAN_FIBERS 1
#endif
#if defined(__SANITIZE_THREAD__)
#define HPRS_TSAN_FIBERS 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define HPRS_ASAN_FIBERS 1
#endif
#if __has_feature(thread_sanitizer)
#define HPRS_TSAN_FIBERS 1
#endif
#endif

#if defined(HPRS_ASAN_FIBERS)
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(HPRS_TSAN_FIBERS)
#include <sanitizer/tsan_interface.h>
#endif

namespace hprs::vmpi {

namespace {

/// Stack of every fiber.  Pages commit lazily, so a rank that stays
/// shallow touches only a few of them.
constexpr std::size_t kFiberStackBytes = std::size_t{1} << 20;

void asan_start_switch([[maybe_unused]] void** fake_stack_save,
                       [[maybe_unused]] const void* target_bottom,
                       [[maybe_unused]] std::size_t target_size) {
#if defined(HPRS_ASAN_FIBERS)
  __sanitizer_start_switch_fiber(fake_stack_save, target_bottom, target_size);
#endif
}

void asan_finish_switch([[maybe_unused]] void* fake_stack_save,
                        [[maybe_unused]] const void** from_bottom,
                        [[maybe_unused]] std::size_t* from_size) {
#if defined(HPRS_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(fake_stack_save, from_bottom, from_size);
#endif
}

void* tsan_create_fiber() {
#if defined(HPRS_TSAN_FIBERS)
  return __tsan_create_fiber(0);
#else
  return nullptr;
#endif
}

void* tsan_current_fiber() {
#if defined(HPRS_TSAN_FIBERS)
  return __tsan_get_current_fiber();
#else
  return nullptr;
#endif
}

void tsan_switch_fiber([[maybe_unused]] void* fiber) {
#if defined(HPRS_TSAN_FIBERS)
  __tsan_switch_to_fiber(fiber, 0);
#endif
}

void tsan_destroy_fiber([[maybe_unused]] void* fiber) {
#if defined(HPRS_TSAN_FIBERS)
  __tsan_destroy_fiber(fiber);
#endif
}

/// The bytes of the Itanium C++ ABI's per-thread `__cxa_eh_globals`, as
/// laid out by libsupc++ and libc++abi on non-ARM-EHABI targets: the stack
/// of currently caught exceptions (a pointer) followed by the count of
/// thrown-but-uncaught ones (an unsigned int), padded to two words;
/// all-zero is the empty state.  A fiber parked inside a catch handler must
/// carry its stack with it; otherwise every fiber later run on the same
/// worker thread pushes onto and pops from it -- a bare `throw;` rethrows
/// another fiber's exception, and interleaved handler exits release the
/// wrong one, so one leaks.
using EhGlobals = std::array<unsigned char, 2 * sizeof(void*)>;

/// Installs `next` as the calling thread's exception state and returns the
/// state it replaces.
EhGlobals exchange_eh_globals(const EhGlobals& next) {
  void* const live = abi::__cxa_get_globals();
  EhGlobals prev;
  std::memcpy(prev.data(), live, prev.size());
  std::memcpy(live, next.data(), next.size());
  return prev;
}

}  // namespace

struct Executor::Task {
  enum class Phase : std::uint8_t {
    kReady,    // in the ready queue
    kRunning,  // on a worker
    kParking,  // announced a park; the swap out has not yet been observed
    kParked,   // off-worker, waiting for notify / expiry
    kDone,
  };

  Executor* exec = nullptr;
  std::size_t index = 0;
  std::function<void()> body;

  // Scheduling state, guarded by Executor::mu_.
  Phase phase = Phase::kReady;
  bool notified = false;   // notify() landed during the kParking window
  bool timed_out = false;  // resumed by deadline expiry / deadlock detection
  Clock::time_point deadline = Clock::time_point::max();

  // Context state, touched only by the worker currently running the fiber
  // (successive runs are ordered through mu_).
  bool started = false;
  std::unique_ptr<char[]> stack;  // default-init: pages commit lazily
  ucontext_t ctx{};
  Worker* resumer = nullptr;  // worker to switch back to
  EhGlobals eh{};             // C++ exception state while switched out

  // Sanitizer bookkeeping.
  void* tsan_fiber = nullptr;
  void* asan_fake_stack = nullptr;
  const void* caller_stack_bottom = nullptr;
  std::size_t caller_stack_size = 0;
};

struct Executor::Worker {
  ucontext_t sched_ctx{};
  void* tsan_fiber = nullptr;
  void* asan_fake_stack = nullptr;
};

thread_local Executor::Task* Executor::tls_current_task_ = nullptr;

Executor::Executor() = default;
Executor::~Executor() = default;

void Executor::run(std::vector<std::function<void()>> bodies,
                   std::size_t workers) {
  const std::size_t n = bodies.size();
  if (n == 0) return;

  std::size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  workers = std::min(workers != 0 ? workers : hw, n);

  tasks_.clear();
  tasks_.reserve(n);
  ready_.clear();
  running_ = 0;
  done_ = 0;
  first_error_ = nullptr;
  obs_parks_ = 0;
  obs_ready_moves_ = 0;
  obs_expirations_ = 0;
  for (std::size_t i = 0; i < n; ++i) {
    auto task = std::make_unique<Task>();
    task->exec = this;
    task->index = i;
    task->body = std::move(bodies[i]);
    ready_.push_back(task.get());
    tasks_.push_back(std::move(task));
  }

  // The calling thread is worker 0, so a single-worker run (the whole
  // story on a single-core host) spawns no threads at all.
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) {
    pool.emplace_back([this] { worker_loop(); });
  }
  worker_loop();
  for (auto& t : pool) t.join();

  tasks_.clear();

  auto& metrics = obs::Metrics::instance();
  if (metrics.enabled()) {
    using obs::Domain;
    metrics.add("vmpi.host.executor.parks", obs_parks_, Domain::kHost);
    metrics.add("vmpi.host.executor.ready_moves", obs_ready_moves_,
                Domain::kHost);
    metrics.add("vmpi.host.executor.expirations", obs_expirations_,
                Domain::kHost);
    metrics.gauge_max("vmpi.host.executor.workers",
                      static_cast<double>(workers), Domain::kHost);
  }

  if (first_error_) {
    std::exception_ptr err = std::exchange(first_error_, nullptr);
    std::rethrow_exception(err);
  }
}

void Executor::worker_loop() {
  Worker worker;
  worker.tsan_fiber = tsan_current_fiber();

  std::unique_lock<std::mutex> g(mu_);
  for (;;) {
    if (!ready_.empty()) {
      Task* task = ready_.front();
      ready_.pop_front();
      task->phase = Task::Phase::kRunning;
      ++running_;
      g.unlock();
      resume(worker, *task);
      g.lock();
      // The fiber swapped back: it either parked or finished.
      if (task->phase == Task::Phase::kParking) {
        if (task->notified) {
          // A notify raced with the park; absorb it.
          task->notified = false;
          task->timed_out = false;
          task->phase = Task::Phase::kReady;
          ready_.push_back(task);
        } else {
          task->phase = Task::Phase::kParked;
        }
      } else {
        HPRS_ASSERT(task->phase == Task::Phase::kDone);
        ++done_;
        tsan_destroy_fiber(task->tsan_fiber);
        task->tsan_fiber = nullptr;
        task->stack.reset();
      }
      --running_;
      cv_.notify_all();
      continue;
    }

    if (done_ == tasks_.size()) {
      cv_.notify_all();
      return;
    }

    // Expire parked fibers whose wall-clock deadline passed, and find the
    // next deadline to sleep until.
    const Clock::time_point now = Clock::now();
    Clock::time_point next = Clock::time_point::max();
    bool expired_any = false;
    for (const auto& tp : tasks_) {
      Task& t = *tp;
      if (t.phase != Task::Phase::kParked) continue;
      if (t.deadline <= now) {
        t.timed_out = true;
        t.phase = Task::Phase::kReady;
        ready_.push_back(&t);
        ++obs_expirations_;
        expired_any = true;
      } else {
        next = std::min(next, t.deadline);
      }
    }
    if (expired_any) continue;

    if (running_ == 0) {
      // Quiescence: every live fiber is parked and this executor owns every
      // thread that could notify one -- no future wakeup is possible.  This
      // is a proven deadlock; expire everyone so they can re-check their
      // predicates and report it, without waiting out the deadline.
      for (const auto& tp : tasks_) {
        Task& t = *tp;
        if (t.phase == Task::Phase::kParked) {
          t.timed_out = true;
          t.phase = Task::Phase::kReady;
          ready_.push_back(&t);
          ++obs_expirations_;
        }
      }
      HPRS_ASSERT(!ready_.empty());
      continue;
    }

    if (next != Clock::time_point::max()) {
      cv_.wait_until(g, next);
    } else {
      cv_.wait(g);
    }
  }
}

void Executor::resume(Worker& worker, Task& task) {
  Task* const saved = std::exchange(tls_current_task_, &task);
  task.resumer = &worker;
  if (!task.started) {
    task.started = true;
    task.stack.reset(new char[kFiberStackBytes]);
    getcontext(&task.ctx);
    task.ctx.uc_stack.ss_sp = task.stack.get();
    task.ctx.uc_stack.ss_size = kFiberStackBytes;
    task.ctx.uc_link = nullptr;
    const auto ptr = reinterpret_cast<std::uintptr_t>(&task);
    makecontext(&task.ctx, reinterpret_cast<void (*)()>(&Executor::trampoline),
                2, static_cast<unsigned>(ptr >> 32),
                static_cast<unsigned>(ptr & 0xffffffffu));
    task.tsan_fiber = tsan_create_fiber();
  }
  // The fiber runs on this thread's exception state: swap its own in, and
  // the scheduler's back once it switches out.
  const EhGlobals scheduler_eh = exchange_eh_globals(task.eh);
  asan_start_switch(&worker.asan_fake_stack, task.stack.get(),
                    kFiberStackBytes);
  tsan_switch_fiber(task.tsan_fiber);
  swapcontext(&worker.sched_ctx, &task.ctx);
  asan_finish_switch(worker.asan_fake_stack, nullptr, nullptr);
  task.eh = exchange_eh_globals(scheduler_eh);
  tls_current_task_ = saved;
}

void Executor::switch_to_scheduler(Task& task) {
  asan_start_switch(&task.asan_fake_stack, task.caller_stack_bottom,
                    task.caller_stack_size);
  tsan_switch_fiber(task.resumer->tsan_fiber);
  swapcontext(&task.ctx, &task.resumer->sched_ctx);
  // Resumed, possibly by a different worker.
  asan_finish_switch(task.asan_fake_stack, &task.caller_stack_bottom,
                     &task.caller_stack_size);
}

void Executor::trampoline(unsigned hi, unsigned lo) {
  auto* task = reinterpret_cast<Task*>(
      (static_cast<std::uintptr_t>(hi) << 32) | static_cast<std::uintptr_t>(lo));
  asan_finish_switch(nullptr, &task->caller_stack_bottom,
                     &task->caller_stack_size);
  Executor* const exec = task->exec;
  try {
    task->body();
  } catch (...) {
    std::lock_guard<std::mutex> g(exec->mu_);
    if (!exec->first_error_) exec->first_error_ = std::current_exception();
  }
  {
    std::lock_guard<std::mutex> g(exec->mu_);
    task->phase = Task::Phase::kDone;
  }
  // Final switch out; passing a null save slot tells ASan to free this
  // fiber's fake stack.  Never returns.
  asan_start_switch(nullptr, task->caller_stack_bottom,
                    task->caller_stack_size);
  tsan_switch_fiber(task->resumer->tsan_fiber);
  swapcontext(&task->ctx, &task->resumer->sched_ctx);
  HPRS_ASSERT(false);  // unreachable
}

bool Executor::park(std::unique_lock<std::mutex>& lock,
                    Clock::time_point deadline) {
  Task* const task = tls_current_task_;
  HPRS_ASSERT(task != nullptr && task->exec == this);
  {
    std::lock_guard<std::mutex> g(mu_);
    task->phase = Task::Phase::kParking;
    task->notified = false;
    task->timed_out = false;
    task->deadline = deadline;
    ++obs_parks_;
  }
  // The fiber releases the caller's lock itself (a cross-thread unlock
  // would be undefined), then yields to the scheduler.  A notify between
  // the unlock and the swap lands in the kParking window and is absorbed
  // by the worker when it observes the swap-out.
  lock.unlock();
  switch_to_scheduler(*task);
  lock.lock();
  return task->timed_out;
}

void Executor::notify(std::size_t task_index) {
  HPRS_ASSERT(task_index < tasks_.size());
  Task& task = *tasks_[task_index];
  std::lock_guard<std::mutex> g(mu_);
  if (task.phase == Task::Phase::kParked) {
    task.phase = Task::Phase::kReady;
    task.notified = false;
    task.timed_out = false;
    ready_.push_back(&task);
    ++obs_ready_moves_;
    cv_.notify_one();
  } else if (task.phase == Task::Phase::kParking) {
    task.notified = true;
  }
  // kReady / kRunning / kDone: nothing to do -- a running task re-checks
  // its predicate (under the caller's lock) before it can park.
}

void Executor::notify_all() {
  std::lock_guard<std::mutex> g(mu_);
  bool woke = false;
  for (const auto& tp : tasks_) {
    Task& task = *tp;
    if (task.phase == Task::Phase::kParked) {
      task.phase = Task::Phase::kReady;
      task.notified = false;
      task.timed_out = false;
      ready_.push_back(&task);
      ++obs_ready_moves_;
      woke = true;
    } else if (task.phase == Task::Phase::kParking) {
      task.notified = true;
    }
  }
  if (woke) cv_.notify_all();
}

}  // namespace hprs::vmpi
