#include "src/obs/profile.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <map>
#include <memory>
#include <utility>

#include "src/common/thread_annotations.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "src/obs/alloc.h"
#include "src/obs/telemetry.h"

namespace fms::obs {
namespace {

// Per-thread CPU time. Scheduling noise (preemption, other threads) does
// not inflate a zone this way, which keeps repeated profile runs far
// tighter than wall-clock would be.
std::uint64_t thread_cpu_ns() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
  }
#endif
#if defined(CLOCK_MONOTONIC)
  timespec mono{};
  if (clock_gettime(CLOCK_MONOTONIC, &mono) == 0) {
    return static_cast<std::uint64_t>(mono.tv_sec) * 1000000000ull +
           static_cast<std::uint64_t>(mono.tv_nsec);
  }
#endif
  return 0;
}

struct Node {
  const char* name = nullptr;
  int parent = 0;
  // Child lookup by name pointer first (string literals are usually
  // merged per call site), strcmp as the fallback; kept as an insertion-
  // ordered vector — determinism comes from sorting at collection.
  std::vector<std::pair<const char*, int>> children;
  std::uint64_t calls = 0;
  std::uint64_t incl_ns = 0;
  std::uint64_t child_ns = 0;
  std::uint64_t costed_calls = 0;
  OpCost cost;
  std::uint64_t alloc_bytes = 0;
  std::uint64_t allocs = 0;
};

struct Frame {
  int node = 0;
  std::uint64_t start_ns = 0;
};

// One tree per thread. The mutex is uncontended on the hot path (only
// the owning thread enters/exits zones); collect/reset from another
// thread take it briefly.
struct ThreadProfile {
  fms::Mutex mu;
  // nodes[0] is the root sentinel.
  std::vector<Node> nodes FMS_GUARDED_BY(mu);
  std::vector<Frame> stack FMS_GUARDED_BY(mu);

  ThreadProfile() {
    Node root;
    root.name = "";
    root.parent = -1;
    nodes.push_back(root);
  }
};

struct ProfileRegistry {
  fms::Mutex mu;
  // Owned here, never erased: a worker thread may exit while its data is
  // still wanted for the round report.
  std::vector<std::unique_ptr<ThreadProfile>> profiles FMS_GUARDED_BY(mu);
};

ProfileRegistry& profile_registry() {
  static ProfileRegistry* reg = new ProfileRegistry();  // leaked: outlives
                                                        // worker threads
  return *reg;
}

ThreadProfile& thread_profile() {
  thread_local ThreadProfile* tp = [] {
    auto owned = std::make_unique<ThreadProfile>();
    ThreadProfile* raw = owned.get();
    ProfileRegistry& reg = profile_registry();
    const fms::MutexLock lock(reg.mu);
    reg.profiles.push_back(std::move(owned));
    return raw;
  }();
  return *tp;
}

int child_index(ThreadProfile& tp, int parent, const char* name)
    FMS_REQUIRES(tp.mu) {
  for (const auto& [child_name, child_idx] : tp.nodes[parent].children) {
    if (child_name == name || std::strcmp(child_name, name) == 0) {
      return child_idx;
    }
  }
  const int idx = static_cast<int>(tp.nodes.size());
  Node node;
  node.name = name;
  node.parent = parent;
  tp.nodes.push_back(node);
  tp.nodes[parent].children.emplace_back(name, idx);
  return idx;
}

// Merged (cross-thread) tree used by collect_profile. std::map keys give
// the lexicographic child order the report promises.
struct MergedNode {
  std::uint64_t calls = 0;
  std::uint64_t incl_ns = 0;
  std::uint64_t child_ns = 0;
  std::uint64_t costed_calls = 0;
  OpCost cost;
  std::uint64_t alloc_bytes = 0;
  std::uint64_t allocs = 0;
  std::map<std::string, MergedNode> children;
};

void merge_thread_tree(const ThreadProfile& tp, int idx, MergedNode* into)
    FMS_REQUIRES(tp.mu) {
  const Node& node = tp.nodes[static_cast<std::size_t>(idx)];
  into->calls += node.calls;
  into->incl_ns += node.incl_ns;
  into->child_ns += node.child_ns;
  into->costed_calls += node.costed_calls;
  into->cost += node.cost;
  into->alloc_bytes += node.alloc_bytes;
  into->allocs += node.allocs;
  for (const auto& [child_name, child_idx] : node.children) {
    merge_thread_tree(tp, child_idx, &into->children[child_name]);
  }
}

// reset_profiler zeroes counters but keeps each thread's tree shape (so
// open frames stay valid), which leaves husks of earlier measurement
// windows behind. Drop subtrees that saw no activity since the reset.
bool merged_node_is_empty(const MergedNode& node) {
  if (node.calls != 0 || node.allocs != 0) return false;
  for (const auto& [child_name, child] : node.children) {
    if (!merged_node_is_empty(child)) return false;
  }
  return true;
}

void flatten_merged(const MergedNode& node, const std::string& path,
                    const std::string& name, int depth,
                    std::vector<ZoneStats>* out) {
  if (depth >= 0) {
    ZoneStats z;
    z.path = path;
    z.name = name;
    z.depth = depth;
    z.calls = node.calls;
    z.incl_ns = node.incl_ns;
    z.excl_ns = node.incl_ns > node.child_ns ? node.incl_ns - node.child_ns
                                             : 0;
    z.costed_calls = node.costed_calls;
    z.cost = node.cost;
    z.alloc_bytes = node.alloc_bytes;
    z.allocs = node.allocs;
    out->push_back(std::move(z));
  }
  for (const auto& [child_name, child] : node.children) {
    if (merged_node_is_empty(child)) continue;
    const std::string child_path =
        depth >= 0 ? path + "/" + child_name : child_name;
    flatten_merged(child, child_path, child_name, depth + 1, out);
  }
}

}  // namespace

namespace detail {

void zone_enter(const char* name, const OpCost* cost, bool count_call) {
  ThreadProfile& tp = thread_profile();
  const fms::MutexLock lock(tp.mu);
  const int parent = tp.stack.empty() ? 0 : tp.stack.back().node;
  const int idx = child_index(tp, parent, name);
  Node& node = tp.nodes[static_cast<std::size_t>(idx)];
  if (count_call) node.calls += 1;
  if (cost != nullptr) {
    node.costed_calls += 1;
    node.cost += *cost;
  }
  // Clock read last: zone time excludes the bookkeeping above.
  tp.stack.push_back(Frame{idx, thread_cpu_ns()});
}

void zone_exit() {
  // Clock read first, symmetric with zone_enter.
  const std::uint64_t now = thread_cpu_ns();
  ThreadProfile& tp = thread_profile();
  const fms::MutexLock lock(tp.mu);
  if (tp.stack.empty()) return;  // reset_profiler raced an exit; drop it
  const Frame frame = tp.stack.back();
  tp.stack.pop_back();
  const std::uint64_t dur = now > frame.start_ns ? now - frame.start_ns : 0;
  Node& node = tp.nodes[static_cast<std::size_t>(frame.node)];
  node.incl_ns += dur;
  tp.nodes[static_cast<std::size_t>(node.parent)].child_ns += dur;
}

void zone_add_cost(const OpCost& cost) {
  ThreadProfile& tp = thread_profile();
  const fms::MutexLock lock(tp.mu);
  if (tp.stack.empty()) return;  // no open op to book it on
  Node& node = tp.nodes[static_cast<std::size_t>(tp.stack.back().node)];
  node.costed_calls += 1;
  node.cost += cost;
}

void zone_note_alloc(std::size_t bytes) {
  ThreadProfile& tp = thread_profile();
  const fms::MutexLock lock(tp.mu);
  const int idx = tp.stack.empty() ? 0 : tp.stack.back().node;
  Node& node = tp.nodes[static_cast<std::size_t>(idx)];
  node.alloc_bytes += bytes;
  node.allocs += 1;
}

}  // namespace detail

std::vector<const char*> current_zone_path() {
  std::vector<const char*> path;
  if (!profiling_enabled()) return path;
  ThreadProfile& tp = thread_profile();
  const fms::MutexLock lock(tp.mu);
  path.reserve(tp.stack.size());
  for (const Frame& frame : tp.stack) {
    path.push_back(tp.nodes[static_cast<std::size_t>(frame.node)].name);
  }
  return path;
}

void set_profiling_enabled(bool on) {
  detail::profiling_flag().store(on, std::memory_order_relaxed);
}

void reset_profiler() {
  ProfileRegistry& reg = profile_registry();
  const fms::MutexLock reg_lock(reg.mu);
  for (auto& tp : reg.profiles) {
    const fms::MutexLock lock(tp->mu);
    for (Node& node : tp->nodes) {
      node.calls = 0;
      node.incl_ns = 0;
      node.child_ns = 0;
      node.costed_calls = 0;
      node.cost = OpCost{};
      node.alloc_bytes = 0;
      node.allocs = 0;
    }
    // Open zones restart from now so their partial time is discarded;
    // re-count them as in-flight calls.
    const std::uint64_t now = thread_cpu_ns();
    for (Frame& frame : tp->stack) {
      frame.start_ns = now;
      tp->nodes[static_cast<std::size_t>(frame.node)].calls += 1;
    }
  }
}

ProfileReport collect_profile() {
  MergedNode root;
  {
    ProfileRegistry& reg = profile_registry();
    const fms::MutexLock reg_lock(reg.mu);
    for (auto& tp : reg.profiles) {
      const fms::MutexLock lock(tp->mu);
      merge_thread_tree(*tp, 0, &root);
    }
  }
  ProfileReport report;
  flatten_merged(root, "", "", -1, &report.zones);
  // Allocations that happened outside any zone live on the root; surface
  // them so the ledger in the report always sums to the global one.
  if (root.allocs > 0) {
    ZoneStats unzoned;
    unzoned.path = "(unzoned)";
    unzoned.name = "(unzoned)";
    unzoned.depth = 0;
    unzoned.alloc_bytes = root.alloc_bytes;
    unzoned.allocs = root.allocs;
    report.zones.push_back(std::move(unzoned));
  }
  return report;
}

std::string self_time_table(const ProfileReport& report,
                            std::size_t max_rows) {
  std::vector<const ZoneStats*> rows;
  rows.reserve(report.zones.size());
  for (const ZoneStats& z : report.zones) rows.push_back(&z);
  std::sort(rows.begin(), rows.end(),
            [](const ZoneStats* a, const ZoneStats* b) {
              if (a->excl_ns != b->excl_ns) return a->excl_ns > b->excl_ns;
              return a->path < b->path;  // deterministic tie-break
            });
  if (rows.size() > max_rows) rows.resize(max_rows);

  std::uint64_t total_excl = 0;
  for (const ZoneStats& z : report.zones) total_excl += z.excl_ns;

  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%10s %6s %10s %10s %9s %8s  %s\n",
                "self_ms", "self%", "incl_ms", "calls", "alloc_kb",
                "allocs", "zone");
  out += line;
  for (const ZoneStats* z : rows) {
    const double self_ms = static_cast<double>(z->excl_ns) / 1e6;
    const double incl_ms = static_cast<double>(z->incl_ns) / 1e6;
    const double pct =
        total_excl == 0 ? 0.0
                        : 100.0 * static_cast<double>(z->excl_ns) /
                              static_cast<double>(total_excl);
    const double alloc_kb = static_cast<double>(z->alloc_bytes) / 1024.0;
    std::snprintf(line, sizeof(line),
                  "%10.3f %5.1f%% %10.3f %10llu %9.1f %8llu  %s\n", self_ms,
                  pct, incl_ms, static_cast<unsigned long long>(z->calls),
                  alloc_kb, static_cast<unsigned long long>(z->allocs),
                  z->path.c_str());
    out += line;
  }
  return out;
}

void emit_profile_telemetry(const ProfileReport& report) {
  if (!telemetry_enabled()) return;
  Telemetry& telemetry = Telemetry::instance();
  MetricsRegistry& registry = telemetry.registry();
  for (const ZoneStats& z : report.zones) {
    TraceEvent event;
    event.type = "profile";
    event.name = z.path;
    event.round = telemetry.round();
    event.fields.emplace_back("depth", static_cast<double>(z.depth));
    event.fields.emplace_back("calls", static_cast<double>(z.calls));
    event.fields.emplace_back("incl_ns", static_cast<double>(z.incl_ns));
    event.fields.emplace_back("excl_ns", static_cast<double>(z.excl_ns));
    event.fields.emplace_back("alloc_bytes",
                              static_cast<double>(z.alloc_bytes));
    event.fields.emplace_back("allocs", static_cast<double>(z.allocs));
    telemetry.emit(std::move(event));

    registry.gauge("fms.prof." + z.path + ".excl_ns")
        .set(static_cast<double>(z.excl_ns));
    registry.gauge("fms.prof." + z.path + ".incl_ns")
        .set(static_cast<double>(z.incl_ns));
    registry.gauge("fms.prof." + z.path + ".calls")
        .set(static_cast<double>(z.calls));
  }
  const AllocStats alloc = alloc_stats();
  registry.gauge("fms.alloc.allocs").set(static_cast<double>(alloc.allocs));
  registry.gauge("fms.alloc.frees").set(static_cast<double>(alloc.frees));
  registry.gauge("fms.alloc.total_bytes")
      .set(static_cast<double>(alloc.total_bytes));
  registry.gauge("fms.alloc.live_bytes")
      .set(static_cast<double>(alloc.live_bytes));
  registry.gauge("fms.alloc.peak_live_bytes")
      .set(static_cast<double>(alloc.peak_live_bytes));
  registry.gauge("fms.rss.peak_bytes")
      .set(static_cast<double>(peak_rss_bytes()));
}

std::int64_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
#if defined(__APPLE__)
    return static_cast<std::int64_t>(usage.ru_maxrss);  // bytes on macOS
#else
    return static_cast<std::int64_t>(usage.ru_maxrss) * 1024;  // KiB
#endif
  }
#endif
  return 0;
}

}  // namespace fms::obs
