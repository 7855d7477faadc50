// Minimal fixed-size thread pool.
//
// Participant-local training steps are independent and run in parallel
// on the pool FederatedSearch owns (the train stage of a staged round);
// on single-core hosts the pool degrades gracefully to one worker, which
// runs every task inline on the caller. parallel_for is the only API the
// library uses.
//
// Tasks re-open the submitting thread's profiler zone path before they
// run (src/obs/profile.h), so a zone entered on a worker merges under the
// zone that was open where the work was submitted. With allocation
// tracking on, each task keeps its own allocation ledger, folded in index
// order after the join, so peak_live_bytes does not depend on scheduling
// (src/obs/alloc.h).
//
// Locking discipline is compile-time-checked via the thread-safety
// annotations (src/common/thread_annotations.h): tasks_ and stopping_
// are guarded by mu_, and the clang CI jobs fail on any unguarded
// access.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "src/common/thread_annotations.h"
#include "src/obs/alloc.h"
#include "src/obs/profile.h"

namespace fms {

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads =
                          std::max(1U, std::thread::hardware_concurrency())) {
    for (std::size_t i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      MutexLock lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  std::size_t size() const { return workers_.size(); }

  // Runs fn(i) for i in [0, n); blocks until all complete. When tasks
  // throw, the exception of the lowest failing index propagates — the
  // same one a serial loop would raise, whatever the scheduling.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
    if (n == 0) return;
    if (workers_.size() == 1 || n == 1) {
      for (std::size_t i = 0; i < n; ++i) fn(i);
      return;
    }
    const std::vector<const char*> zone_path = obs::current_zone_path();
    const bool track_allocs = obs::alloc_tracking_enabled();
    const std::int64_t live_before =
        track_allocs ? obs::alloc_stats().live_bytes : 0;
    std::vector<obs::TaskAlloc> allocs(track_allocs ? n : 0);
    // Completion state is local to this call, shared only with the task
    // lambdas below — a plain mutex is fine (no annotatable members).
    std::mutex done_mu;
    std::condition_variable done_cv;
    std::size_t remaining = n;
    std::size_t error_index = n;
    std::exception_ptr error;
    for (std::size_t i = 0; i < n; ++i) {
      submit([&, i] {
        try {
          const obs::ZonePathScope zones(zone_path);
          const obs::AllocTaskScope alloc_scope(track_allocs ? &allocs[i]
                                                             : nullptr);
          fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(done_mu);
          if (i < error_index) {
            error_index = i;
            error = std::current_exception();
          }
        }
        std::lock_guard<std::mutex> lock(done_mu);
        if (--remaining == 0) done_cv.notify_one();
      });
    }
    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait(lock, [&] { return remaining == 0; });
    if (track_allocs) obs::fold_task_peaks(live_before, allocs);
    if (error) std::rethrow_exception(error);
  }

 private:
  void submit(std::function<void()> task) {
    {
      MutexLock lock(mu_);
      tasks_.push(std::move(task));
    }
    cv_.notify_one();
  }

  void worker_loop() {
    for (;;) {
      std::function<void()> task;
      {
        MutexLock lock(mu_);
        // Explicit loop (not the predicate overload): the analysis sees
        // the guarded reads happen with mu_ held; wait() re-acquires
        // before returning.
        while (!stopping_ && tasks_.empty()) cv_.wait(mu_);
        if (stopping_ && tasks_.empty()) return;
        task = std::move(tasks_.front());
        tasks_.pop();
      }
      task();
    }
  }

  std::vector<std::thread> workers_;
  Mutex mu_;
  std::queue<std::function<void()>> tasks_ FMS_GUARDED_BY(mu_);
  std::condition_variable_any cv_;
  bool stopping_ FMS_GUARDED_BY(mu_) = false;
};

}  // namespace fms
