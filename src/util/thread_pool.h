#ifndef FDM_UTIL_THREAD_POOL_H_
#define FDM_UTIL_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <condition_variable>
#include <thread>
#include <vector>

#include "util/check.h"

namespace fdm {

/// A small reusable fork-join thread pool.
///
/// The guess-ladder rungs of every streaming sink — while they fill and
/// while `Solve` post-processes them — the shards of the sharded driver,
/// and the sessions of a manager-wide snapshot sweep are independent, so
/// their loops hand index ranges to a pool and join before returning.
/// The process shares one machine-sized pool through `FanOut` below.
///
/// The pool is fork-join only: one `ParallelFor` owns it at a time. A
/// call that finds it busy — nested inside one of its own tasks, or
/// concurrent from another thread — runs its tasks inline on the caller
/// instead of waiting, so no fan-out ever blocks behind another.
///
/// Workers idle on a condition variable between calls, so a pool can be
/// kept alive across millions of calls without burning CPU.
class ThreadPool {
 public:
  /// `num_threads` is the total parallelism including the calling thread;
  /// the pool spawns `num_threads - 1` workers. `0` means one thread per
  /// hardware thread.
  explicit ThreadPool(size_t num_threads = 0) {
    if (num_threads == 0) num_threads = DefaultThreads();
    const size_t workers = num_threads > 1 ? num_threads - 1 : 0;
    workers_.reserve(workers);
    for (size_t t = 0; t < workers; ++t) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    wake_.notify_all();
    for (std::thread& w : workers_) w.join();
  }

  /// Total parallelism (workers + the calling thread).
  size_t num_threads() const { return workers_.size() + 1; }

  /// Runs `fn(0) … fn(n-1)`, distributing indices dynamically over the
  /// workers and the calling thread; returns once every call finished.
  /// `fn` must not throw. Distinct indices may run concurrently — callers
  /// guarantee they touch disjoint state.
  ///
  /// Completion is counted per *task*, not per worker, so only as many
  /// workers as there are tasks are woken — a pool sized for the machine
  /// stays cheap when a batch has few rungs/shards to hand out.
  ///
  /// `max_parallelism` caps total concurrency for this call (caller
  /// included) below the pool size; `0` means the whole pool. The cap is
  /// hard: each job carries a worker-slot budget, so a stale worker that
  /// wakes late cannot push the join count past it.
  ///
  /// If another call owns the pool (see the class comment), this one runs
  /// `fn(0) … fn(n-1)` inline, in order, on the calling thread.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                   size_t max_parallelism = 0) {
    if (n == 0) return;
    const size_t width =
        max_parallelism == 0
            ? workers_.size() + 1
            : std::min(max_parallelism, workers_.size() + 1);
    // The try-lock on the fork-join slot. An atomic flag rather than
    // `std::mutex::try_lock`, because a nested call comes from the thread
    // that already owns the slot, where `try_lock` is undefined.
    if (workers_.empty() || n == 1 || width == 1 ||
        busy_.exchange(true, std::memory_order_acquire)) {
      for (size_t i = 0; i < n; ++i) fn(i);
      return;
    }
    // Each job owns its counters (shared with any worker that picks it
    // up), so a stale worker waking late — or looping one extra time
    // after this job's tasks are exhausted — saturates on the OLD job's
    // `next` and can never claim an index of a newer job or touch its
    // (by then destroyed) closure.
    auto job = std::make_shared<Job>(fn, n, width - 1);
    {
      std::lock_guard<std::mutex> lock(mu_);
      job_ = job;
      ++generation_;
    }
    const size_t to_wake = std::min({workers_.size(), n - 1, width - 1});
    if (to_wake >= workers_.size()) {
      wake_.notify_all();
    } else {
      for (size_t w = 0; w < to_wake; ++w) wake_.notify_one();
    }
    Drain(*job);
    {
      std::unique_lock<std::mutex> lock(mu_);
      done_.wait(lock, [&job] {
        return job->remaining.load(std::memory_order_acquire) == 0;
      });
      job_ = nullptr;
    }
    busy_.store(false, std::memory_order_release);
  }

  static size_t DefaultThreads() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<size_t>(hw);
  }

 private:
  struct Job {
    Job(const std::function<void(size_t)>& fn_in, size_t limit_in,
        size_t worker_slots_in)
        : fn(&fn_in),
          limit(limit_in),
          remaining(limit_in),
          worker_slots(static_cast<int64_t>(worker_slots_in)) {}
    const std::function<void(size_t)>* fn;
    size_t limit;
    std::atomic<size_t> next{0};
    std::atomic<size_t> remaining;
    // How many workers may still join (the caller is not counted). Signed:
    // over-woken workers decrement past zero and simply bow out.
    std::atomic<int64_t> worker_slots;
  };

  void Drain(Job& job) {
    for (size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
         i < job.limit;
         i = job.next.fetch_add(1, std::memory_order_relaxed)) {
      (*job.fn)(i);
      if (job.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // Last task: sync with the caller's wait (empty critical section
        // prevents the notify racing past the predicate check), then wake.
        { std::lock_guard<std::mutex> lock(mu_); }
        done_.notify_one();
      }
    }
  }

  void WorkerLoop() {
    uint64_t seen = 0;
    for (;;) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        job = job_;  // null when the job already finished (late wakeup)
      }
      if (job != nullptr &&
          job->worker_slots.fetch_sub(1, std::memory_order_relaxed) > 0) {
        Drain(*job);
      }
    }
  }

  std::vector<std::thread> workers_;
  std::atomic<bool> busy_{false};  // a ParallelFor owns the pool
  std::mutex mu_;
  std::condition_variable wake_;
  std::condition_variable done_;
  std::shared_ptr<Job> job_;
  uint64_t generation_ = 0;
  bool stop_ = false;
};

namespace internal {
inline std::atomic<int> fan_out_width{1};
}  // namespace internal

/// The process-wide fan-out width: `1` runs every fan-out inline on its
/// caller (the default), `0` allows one thread per hardware thread, and
/// `n > 1` allows at most `n` threads per fan-out. It is the only thread
/// setting of the sinks, the sharded driver and the session manager, so
/// it belongs to the process (`fdm_serve --threads`, a bench's sweep, a
/// test), never to a sink spec or a snapshot. Selection is bit-identical
/// at every width, so changing it never changes an answer or advances a
/// state version.
inline void SetFanOutWidth(int width) {
  FDM_CHECK_MSG(width >= 0, "fan-out width must be >= 0");
  internal::fan_out_width.store(width, std::memory_order_relaxed);
}

inline int FanOutWidth() {
  return internal::fan_out_width.load(std::memory_order_relaxed);
}

/// Runs `fn(0) … fn(n-1)`: inline and in order at width 1, otherwise on
/// the one shared machine-sized pool capped at the width — or inline when
/// that pool is busy with another fan-out. Tasks must touch disjoint
/// state; `fn` must not throw.
inline void FanOut(size_t n, const std::function<void(size_t)>& fn) {
  const int width = FanOutWidth();
  if (width == 1 || n <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Leaked so fan-outs reached from static sinks or detached serving
  // threads stay safe at exit.
  static ThreadPool* pool = new ThreadPool(0);
  pool->ParallelFor(n, fn, static_cast<size_t>(width));
}

}  // namespace fdm

#endif  // FDM_UTIL_THREAD_POOL_H_
