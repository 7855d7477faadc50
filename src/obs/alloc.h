// Tensor allocation accounting.
//
// The paper's round-time and memory claims need to know where tensor
// bytes go: how many allocations a round performs, how much storage is
// live at once, and whether rounds leak. The hooks below are called from
// Tensor's special members (src/tensor/tensor.h) — the only tensor
// storage in the codebase — and cost one relaxed atomic load when
// tracking is disabled.
//
// This header is deliberately dependency-free (standard headers only) so
// the tensor header can include it without pulling the rest of src/obs
// into every translation unit.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace fms::obs {

// Live-byte delta of one ThreadPool task and the highest it reached.
struct TaskAlloc {
  std::int64_t live = 0;
  std::int64_t peak = 0;
};

namespace detail {
inline std::atomic<bool>& alloc_tracking_flag() {
  static std::atomic<bool> flag{false};
  return flag;
}

struct AllocCounters {
  std::atomic<std::uint64_t> allocs{0};
  std::atomic<std::uint64_t> frees{0};
  std::atomic<std::uint64_t> total_bytes{0};
  // live_bytes is signed: tracking may be switched on while tensors
  // allocated earlier are still alive, so frees can transiently outrun
  // tracked allocations.
  std::atomic<std::int64_t> live_bytes{0};
  std::atomic<std::int64_t> peak_live_bytes{0};
};

inline AllocCounters& alloc_counters() {
  static AllocCounters counters;
  return counters;
}

// The task open on this thread, if any (see AllocTaskScope).
inline TaskAlloc*& current_task_alloc() {
  thread_local TaskAlloc* task = nullptr;
  return task;
}

inline void raise_peak(std::int64_t live) {
  std::atomic<std::int64_t>& peak = alloc_counters().peak_live_bytes;
  std::int64_t seen = peak.load(std::memory_order_relaxed);
  while (live > seen && !peak.compare_exchange_weak(
                            seen, live, std::memory_order_relaxed)) {
  }
}
}  // namespace detail

inline bool alloc_tracking_enabled() {
  return detail::alloc_tracking_flag().load(std::memory_order_relaxed);
}

inline void set_alloc_tracking_enabled(bool on) {
  detail::alloc_tracking_flag().store(on, std::memory_order_relaxed);
}

// Point-in-time snapshot of the tensor allocation ledger.
struct AllocStats {
  std::uint64_t allocs = 0;       // tensor buffers allocated
  std::uint64_t frees = 0;        // tensor buffers released
  std::uint64_t total_bytes = 0;  // cumulative bytes ever allocated
  std::int64_t live_bytes = 0;    // currently live tensor bytes
  std::int64_t peak_live_bytes = 0;
};

// Forward declaration; defined in src/obs/profile.h. Attributes tensor
// allocations to the innermost active profiler zone, if any.
void profile_note_alloc(std::size_t bytes);

inline void track_alloc(std::size_t bytes) {
  if (bytes == 0 || !alloc_tracking_enabled()) return;
  detail::AllocCounters& c = detail::alloc_counters();
  c.allocs.fetch_add(1, std::memory_order_relaxed);
  c.total_bytes.fetch_add(bytes, std::memory_order_relaxed);
  const std::int64_t live =
      c.live_bytes.fetch_add(static_cast<std::int64_t>(bytes),
                             std::memory_order_relaxed) +
      static_cast<std::int64_t>(bytes);
  if (TaskAlloc* task = detail::current_task_alloc()) {
    task->live += static_cast<std::int64_t>(bytes);
    task->peak = task->live > task->peak ? task->live : task->peak;
  } else {
    detail::raise_peak(live);
  }
  profile_note_alloc(bytes);
}

inline void track_free(std::size_t bytes) {
  if (bytes == 0 || !alloc_tracking_enabled()) return;
  detail::AllocCounters& c = detail::alloc_counters();
  c.frees.fetch_add(1, std::memory_order_relaxed);
  c.live_bytes.fetch_sub(static_cast<std::int64_t>(bytes),
                         std::memory_order_relaxed);
  if (TaskAlloc* task = detail::current_task_alloc()) {
    task->live -= static_cast<std::int64_t>(bytes);
  }
}

// Routes this thread's allocations into `task` for the handle's lifetime.
// ThreadPool::parallel_for opens one per task and, once all have joined,
// calls fold_task_peaks: peak_live_bytes is then the peak of the serial
// schedule (tasks in index order), the same for any thread count, rather
// than an accident of how the workers interleaved.
class AllocTaskScope {
 public:
  explicit AllocTaskScope(TaskAlloc* task)
      : outer_(detail::current_task_alloc()) {
    detail::current_task_alloc() = task;
  }
  AllocTaskScope(const AllocTaskScope&) = delete;
  AllocTaskScope& operator=(const AllocTaskScope&) = delete;
  ~AllocTaskScope() { detail::current_task_alloc() = outer_; }

 private:
  TaskAlloc* outer_;
};

// `live_before`: live_bytes when the tasks were submitted.
inline void fold_task_peaks(std::int64_t live_before,
                            const std::vector<TaskAlloc>& tasks) {
  std::int64_t live = live_before;
  for (const TaskAlloc& task : tasks) {
    detail::raise_peak(live + task.peak);
    live += task.live;
  }
}

inline AllocStats alloc_stats() {
  const detail::AllocCounters& c = detail::alloc_counters();
  AllocStats s;
  s.allocs = c.allocs.load(std::memory_order_relaxed);
  s.frees = c.frees.load(std::memory_order_relaxed);
  s.total_bytes = c.total_bytes.load(std::memory_order_relaxed);
  s.live_bytes = c.live_bytes.load(std::memory_order_relaxed);
  s.peak_live_bytes = c.peak_live_bytes.load(std::memory_order_relaxed);
  return s;
}

// Overwrites the ledger with `s` — lets a nested measurement window
// (the bench harness's accounting pass) restore the outer window's
// counts after a destructive reset.
inline void restore_alloc_stats(const AllocStats& s) {
  detail::AllocCounters& c = detail::alloc_counters();
  c.allocs.store(s.allocs, std::memory_order_relaxed);
  c.frees.store(s.frees, std::memory_order_relaxed);
  c.total_bytes.store(s.total_bytes, std::memory_order_relaxed);
  c.live_bytes.store(s.live_bytes, std::memory_order_relaxed);
  c.peak_live_bytes.store(s.peak_live_bytes, std::memory_order_relaxed);
}

inline void reset_alloc_stats() { restore_alloc_stats(AllocStats{}); }

}  // namespace fms::obs
