// In-process scoped profiler: a tree of named zones with inclusive /
// exclusive CPU time, call counts, bytes-touched attribution, and the
// tensor-allocation ledger (src/obs/alloc.h) attributed per zone.
//
// FMS_PROFILE_ZONE("nn.conv_fwd") opens a zone for the enclosing scope;
// nesting builds a per-thread tree (zones entered on ThreadPool workers
// grow their own trees, merged deterministically at collection time). A
// pool task first re-opens the submitting thread's zone path
// (ZonePathScope), so worker zones merge under the zone that submitted
// them: round/local_train/... whether training ran inline or on a worker.
// Time is per-thread CPU time (CLOCK_THREAD_CPUTIME_ID), so a zone's
// cost is what *it* burned, not what it waited on.
//
// When profiling is disabled the zone constructor reads one relaxed
// atomic and does nothing else — search results are bit-identical to an
// uninstrumented build (the profiler only ever observes; it never
// touches RNG streams, float accumulation order, or iteration order).
//
// Zone names must be string literals (or otherwise outlive the
// profiler): nodes store the pointer, not a copy.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace fms::obs {

namespace detail {
inline std::atomic<bool>& profiling_flag() {
  static std::atomic<bool> flag{false};
  return flag;
}

// Out-of-line slow paths (profile.cpp); called only when profiling is on.
// count_call = false re-enters a zone another thread already counted.
void zone_enter(const char* name, bool count_call = true);
void zone_exit();
void zone_add_bytes(std::uint64_t bytes);
}  // namespace detail

inline bool profiling_enabled() {
  return detail::profiling_flag().load(std::memory_order_relaxed);
}

void set_profiling_enabled(bool on);

// Zeroes every zone's counters (tree structure and any active zone stack
// are preserved, so it is safe to call between benchmark repetitions even
// if an outer zone is open; the open zones restart their clocks).
void reset_profiler();

// One merged zone across all threads, identified by its path from the
// root ("round/aggregate/agg.estimate").
struct ZoneStats {
  std::string path;
  std::string name;  // last path segment
  int depth = 0;     // 0 for top-level zones
  std::uint64_t calls = 0;
  std::uint64_t incl_ns = 0;  // CPU ns inside the zone, children included
  std::uint64_t excl_ns = 0;  // incl_ns minus child zones' inclusive time
  std::uint64_t bytes = 0;    // bytes-touched, via FMS_PROFILE_BYTES
  std::uint64_t alloc_bytes = 0;  // tensor bytes allocated inside the zone
  std::uint64_t allocs = 0;       // tensor allocations inside the zone
};

struct ProfileReport {
  // Depth-first over the merged tree, children in lexicographic name
  // order — deterministic regardless of thread scheduling.
  std::vector<ZoneStats> zones;
};

// Merges every thread's tree into one deterministic report. Open zones
// contribute their finished calls only.
ProfileReport collect_profile();

// Human-readable table sorted by exclusive (self) time, one row per
// zone, for fms_search_cli --profile and fms_bench --profile.
std::string self_time_table(const ProfileReport& report,
                            std::size_t max_rows = 40);

// Emits the report into the active Telemetry context: one "profile"
// trace event per zone, fms.prof.<path>.* gauges, the fms.alloc.*
// ledger, and the fms.rss.peak_bytes gauge. No-op when telemetry is
// disabled.
void emit_profile_telemetry(const ProfileReport& report);

// Process peak resident set size in bytes (0 when unavailable).
std::int64_t peak_rss_bytes();

// The calling thread's open zones, outermost first; empty while
// profiling is disabled.
std::vector<const char*> current_zone_path();

// Re-opens `path` (a current_zone_path() taken on another thread) on this
// thread for the handle's lifetime. The re-opened zones take this
// thread's CPU time, so inclusive and exclusive times stay consistent
// after the merge, but count no calls: the submitting thread owns those.
class ZonePathScope {
 public:
  explicit ZonePathScope(const std::vector<const char*>& path)
      : depth_(profiling_enabled() ? path.size() : 0) {
    for (std::size_t i = 0; i < depth_; ++i) {
      detail::zone_enter(path[i], /*count_call=*/false);
    }
  }

  ZonePathScope(const ZonePathScope&) = delete;
  ZonePathScope& operator=(const ZonePathScope&) = delete;

  ~ZonePathScope() {
    for (std::size_t i = 0; i < depth_; ++i) detail::zone_exit();
  }

 private:
  std::size_t depth_;
};

// RAII zone handle. `name` must outlive the profiler (string literal).
class ScopedZone {
 public:
  explicit ScopedZone(const char* name) : active_(profiling_enabled()) {
    if (active_) detail::zone_enter(name);
  }

  ScopedZone(const ScopedZone&) = delete;
  ScopedZone& operator=(const ScopedZone&) = delete;

  ~ScopedZone() {
    if (active_) detail::zone_exit();
  }

 private:
  bool active_;
};

// Attributes `bytes` of touched data (payload moved, coordinates
// scanned) to the innermost open zone on this thread.
inline void profile_add_bytes(std::uint64_t bytes) {
  if (profiling_enabled()) detail::zone_add_bytes(bytes);
}

}  // namespace fms::obs

#define FMS_PROFILE_CONCAT_INNER(a, b) a##b
#define FMS_PROFILE_CONCAT(a, b) FMS_PROFILE_CONCAT_INNER(a, b)
#define FMS_PROFILE_ZONE(name)                                     \
  ::fms::obs::ScopedZone FMS_PROFILE_CONCAT(fms_scoped_zone_,      \
                                            __LINE__)(name)
#define FMS_PROFILE_BYTES(n) \
  ::fms::obs::profile_add_bytes(static_cast<std::uint64_t>(n))
