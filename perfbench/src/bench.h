// Shared plumbing of the fms_perfbench program: run options, seed
// derivation, output checks, in-memory span tracing, statistics and the
// result every workload fills.
//
// The program links the fms library and calls only its public entry
// points. Every timing is read through fms::Stopwatch, every random draw
// comes from a seeded fms::Rng, and no container iterates in hash order,
// so these sources satisfy the repository's fms_lint rules.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/stopwatch.h"

namespace fms {
struct Genotype;
}

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;  // parent of this run's scratch directory
};

// Every generated input takes its seed from the workload seed; the
// program receives only the generated inputs. Every episode of a run uses
// the same inputs.
struct Seeds {
  std::uint64_t data = 0;       // synthetic images
  std::uint64_t partition = 0;  // participant shards
  std::uint64_t search = 0;     // SearchConfig::seed
  std::uint64_t fault = 0;      // FaultPlan::seed
  std::uint64_t churn = 0;      // ChurnPlan::seed
  std::uint64_t genotype = 0;   // retrain architecture
  std::uint64_t retrain = 0;    // retrain init + batch order
  std::uint64_t bench = 0;      // benchmark-owned replay state
};
Seeds derive_seeds(std::uint64_t seed);

// Output checks feeding error_rate. An operation (round, recovery, epoch,
// episode) fails when any of its checks fails.
class Checker {
 public:
  // Records one operation; `problems` lists its failed checks.
  void op(const std::string& what, const std::vector<std::string>& problems);
  void op(const std::string& what, bool ok, const std::string& problem);
  long attempted() const { return attempted_; }
  long failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  long attempted_ = 0;
  long failed_ = 0;
  std::vector<std::string> failures_;
};

// One timed call into a layer, recorded from the benchmark's own files.
struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int id = 0;
  int trace = -1;  // round (or epoch) the span belongs to
  int cause = -1;  // id of the span that caused it; -1 for a root
  // True when the span replays work the traced root call did itself, so
  // it counts against that call's self time.
  bool attributed = false;
};

// Spans and per-layer samples, kept in memory for the whole run.
class Tracer {
 public:
  explicit Tracer(const fms::Stopwatch& clock) : clock_(clock) {}

  int open(const std::string& name, int trace, int cause, bool attributed);
  double close(int id);  // returns the span's duration in seconds
  template <typename F>
  double measure(const std::string& name, int trace, int cause, bool attributed,
              F&& f) {
    const int id = open(name, trace, cause, attributed);
    f();
    return close(id);
  }
  // A non-time per-layer observation (sizes, counts, ratios).
  void sample(const std::string& name, double value);

  std::vector<double> durations(const std::string& name) const;
  const std::vector<double>& samples(const std::string& name) const;
  double attributed_seconds(int trace, int cause) const;
  void write_jsonl(const std::string& path) const;

 private:
  const fms::Stopwatch& clock_;
  std::vector<Span> spans_;
  std::map<std::string, std::vector<double>> samples_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // printed beside the value in the table
};

struct Result {
  Checker checks;
  std::vector<Metric> metrics;  // the JSON metrics of this run mode
  std::vector<Metric> report;   // printed in the table only
  std::vector<std::string> notes;  // trajectory digests and the like
};

// --- statistics ---
double median(std::vector<double> v);
// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);
double mean(const std::vector<double>& v);

// Process CPU time (user + system), in seconds.
double cpu_seconds();

// 64-bit FNV-1a over byte streams: the trajectory digest.
class Digest {
 public:
  void add(const void* data, std::size_t n);
  void add(const std::vector<std::uint8_t>& bytes) {
    add(bytes.data(), bytes.size());
  }
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// A fresh scratch directory under the run's workdir, removed (with
// everything in it) when the object is destroyed.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& parent);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  std::string file(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

// Whether a run starts another episode: until --seconds is used up (a
// last episode starts only if at least half of it fits), with at least two
// episodes in a traced run and `min_timed` timed rounds in a plain one;
// never past kMaxRunSeconds.
constexpr double kMaxRunSeconds = 120.0;
bool want_episode(const Options& opt, double elapsed, std::size_t episodes,
                  std::size_t timed, std::size_t min_timed,
                  double last_episode_s);

// Set-up is short and noisy, so a run times at least this many.
constexpr std::size_t kMinSetups = 7;

bool in_unit(double x);  // finite and in [0, 1]

// Every episode replays the same inputs, traced or not, so each must
// reproduce the trajectory digest of the first. Records one check per
// later episode and a digest note per episode.
void check_digests(const Options& opt, const std::vector<std::string>& digests,
                   const std::string& kind, Result& res);

// Problems with a derived or sampled genotype (empty when well-formed).
std::vector<std::string> genotype_problems(const fms::Genotype& g, int nodes);

// --- workloads ---
Result run_search_iid(const Options& opt);
Result run_search_stale_faulty(const Options& opt);
Result run_retrain_eval(const Options& opt);

// Per-layer probes for layers a workload does not exercise itself, so the
// traced run of every workload reports every per-layer metric.
void probe_search_layers(const Options& opt, Tracer& tr, Checker& checks);
void probe_retrain_layers(const Options& opt, int steps, Tracer& tr,
                          Checker& checks);
void probe_candidate_ops(std::uint64_t seed, int batch, Tracer& tr);

// Builds the per-layer metric list from the traced run's spans and
// samples, falling back to `probes` for layers the workload bypasses. A
// metric neither provides fails a check.
std::vector<Metric> layer_metrics(const Tracer& tr, const Tracer& probes,
                                  Checker& checks);

}  // namespace perfbench
