// In-process op profiler: one tree of named zones per thread. Each zone
// holds inclusive / exclusive CPU time, call counts, the op cost booked
// on it (FLOPs and bytes moved, conventions in src/obs/work.h), and the
// tensor allocations made inside it (src/obs/alloc.h).
//
// FMS_OP("nn.conv_fwd", obs::conv2d_fwd_cost(...)) opens a zone for the
// enclosing scope and books the cost on it; FMS_OP("nas.forward") opens
// a zone with no cost. Nesting builds a per-thread tree (zones entered on
// ThreadPool workers grow their own trees, merged deterministically at
// collection time). A pool task first re-opens the submitting thread's
// zone path (ZonePathScope), so worker zones merge under the zone that
// submitted them: round/local_train/... whether training ran inline or
// on a worker. Time is per-thread CPU time (CLOCK_THREAD_CPUTIME_ID), so
// a zone's time is what *it* burned, not what it waited on.
//
// One flag, set_profiling_enabled, gates zones, op cost and the
// allocation ledger. When it is off, an op reads one relaxed atomic and
// does nothing else: its cost expression is never evaluated, and search
// results are bit-identical to an uninstrumented build (the profiler only
// ever observes; it never touches RNG streams, float accumulation order,
// or iteration order).
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

// One op invocation's cost (conventions and cost models: src/obs/work.h).
// Additive: booking twice doubles everything.
struct OpCost {
  std::uint64_t flops = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t elements = 0;

  OpCost& operator+=(const OpCost& o) {
    flops += o.flops;
    bytes_read += o.bytes_read;
    bytes_written += o.bytes_written;
    elements += o.elements;
    return *this;
  }
};

namespace detail {
inline std::atomic<bool>& profiling_flag() {
  static std::atomic<bool> flag{false};
  return flag;
}

// Out-of-line slow paths (profile.cpp); called only when profiling is on.
// A non-null `cost` is booked on the zone as one costed call;
// count_call = false re-enters a zone another thread already counted.
void zone_enter(const char* name, const OpCost* cost, bool count_call = true);
void zone_exit();
void zone_add_cost(const OpCost& cost);
// Attributes a tensor allocation to this thread's innermost open zone.
void zone_note_alloc(std::size_t bytes);
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
  std::uint64_t costed_calls = 0;  // calls that booked an OpCost
  OpCost cost;                     // summed over the costed calls
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
// after the merge, but count no calls and book no cost: the submitting
// thread owns those.
class ZonePathScope {
 public:
  explicit ZonePathScope(const std::vector<const char*>& path)
      : depth_(profiling_enabled() ? path.size() : 0) {
    for (std::size_t i = 0; i < depth_; ++i) {
      detail::zone_enter(path[i], nullptr, /*count_call=*/false);
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

// RAII op handle. `name` must outlive the profiler (string literal).
class ScopedOp {
 public:
  explicit ScopedOp(const char* name) : active_(profiling_enabled()) {
    if (active_) detail::zone_enter(name, nullptr);
  }

  // `cost_fn` returns the op's OpCost. It runs once, before the zone's
  // clock starts, and only when profiling is on.
  template <typename CostFn>
  ScopedOp(const char* name, CostFn&& cost_fn)
      : active_(profiling_enabled()) {
    if (active_) {
      const OpCost cost = cost_fn();
      detail::zone_enter(name, &cost);
    }
  }

  ScopedOp(const ScopedOp&) = delete;
  ScopedOp& operator=(const ScopedOp&) = delete;

  ~ScopedOp() {
    if (active_) detail::zone_exit();
  }

  // Books `cost` on this op's zone as one costed call, for ops that learn
  // their cost only after the work (the message encoders). This op must
  // be the innermost open zone.
  void add_cost(const OpCost& cost) {
    if (active_) detail::zone_add_cost(cost);
  }

 private:
  bool active_;
};

}  // namespace fms::obs

#define FMS_OP_CONCAT_INNER(a, b) a##b
#define FMS_OP_CONCAT(a, b) FMS_OP_CONCAT_INNER(a, b)
// FMS_OP_ARGS(name) is `name`; FMS_OP_ARGS(name, cost) wraps the cost in
// a lambda, so the expression is evaluated only when profiling is on.
#define FMS_OP_ARGS_1(name) name
#define FMS_OP_ARGS_2(name, cost) name, [&] { return cost; }
#define FMS_OP_PICK(_1, _2, which, ...) which
#define FMS_OP_ARGS(...) \
  FMS_OP_PICK(__VA_ARGS__, FMS_OP_ARGS_2, FMS_OP_ARGS_1, )(__VA_ARGS__)
// FMS_OP(name) or FMS_OP(name, cost): an op zone for the enclosing scope.
// A cost with top-level commas (a braced OpCost{...}) needs parentheses.
#define FMS_OP(...)                                       \
  ::fms::obs::ScopedOp FMS_OP_CONCAT(fms_scoped_op_, __LINE__)( \
      FMS_OP_ARGS(__VA_ARGS__))
