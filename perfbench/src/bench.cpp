#include "perfbench/src/bench.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

namespace perfbench {
namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

Seeds derive_seeds(std::uint64_t seed) {
  std::uint64_t s = splitmix64(seed);
  auto next = [&s] {
    s = splitmix64(s);
    return s;
  };
  Seeds out;
  out.data = next();
  out.partition = next();
  out.search = next();
  out.fault = next();
  out.churn = next();
  out.genotype = next();
  out.retrain = next();
  out.bench = next();
  return out;
}

void Checker::op(const std::string& what,
                 const std::vector<std::string>& problems) {
  ++attempted_;
  if (problems.empty()) return;
  ++failed_;
  std::string line = what + ":";
  for (const std::string& p : problems) line += " " + p + ";";
  failures_.push_back(line);
}

void Checker::op(const std::string& what, bool ok,
                 const std::string& problem) {
  op(what, ok ? std::vector<std::string>{} : std::vector<std::string>{problem});
}

int Tracer::open(const std::string& name, int trace, int cause,
                 bool attributed) {
  Span s;
  s.name = name;
  s.id = static_cast<int>(spans_.size());
  s.trace = trace;
  s.cause = cause;
  s.attributed = attributed;
  s.start_s = clock_.elapsed_seconds();
  spans_.push_back(s);
  return s.id;
}

double Tracer::close(int id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_s = clock_.elapsed_seconds();
  return s.end_s - s.start_s;
}

void Tracer::sample(const std::string& name, double value) {
  samples_[name].push_back(value);
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.end_s - s.start_s);
  }
  return out;
}

const std::vector<double>& Tracer::samples(const std::string& name) const {
  static const std::vector<double> kEmpty;
  const auto it = samples_.find(name);
  return it == samples_.end() ? kEmpty : it->second;
}

double Tracer::attributed_seconds(int trace, int cause) const {
  double sum = 0.0;
  for (const Span& s : spans_) {
    if (s.attributed && s.trace == trace && s.cause == cause) {
      sum += s.end_s - s.start_s;
    }
  }
  return sum;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"trace\":" << s.trace << ",\"cause\":" << s.cause
        << ",\"attributed\":" << (s.attributed ? "true" : "false")
        << ",\"start_us\":" << s.start_s * 1e6
        << ",\"dur_us\":" << (s.end_s - s.start_s) * 1e6 << "}\n";
  }
}

bool want_episode(const Options& opt, double elapsed, std::size_t episodes,
                  std::size_t timed, std::size_t min_timed,
                  double last_episode_s) {
  if (elapsed >= kMaxRunSeconds) return false;
  if (opt.trace ? episodes < 2 : timed < min_timed) return true;
  return elapsed + 0.5 * last_episode_s < opt.seconds;
}

bool in_unit(double x) { return std::isfinite(x) && x >= 0.0 && x <= 1.0; }

void check_digests(const Options& opt, const std::vector<std::string>& digests,
                   const std::string& kind, Result& res) {
  for (std::size_t i = 0; i < digests.size(); ++i) {
    const bool traced = opt.trace && i % 2 == 1;
    res.notes.push_back("digest " + opt.workload + " seed=" +
                        std::to_string(opt.seed) + " episode=" +
                        std::to_string(i) + (traced ? " traced " : " plain ") +
                        kind + "=" + digests[i]);
    if (i > 0) {
      res.checks.op("episode " + std::to_string(i) + " digest",
                    digests[i] == digests[0], "differs from episode 0");
    }
  }
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

void Digest::add(const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ULL;
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

ScratchDir::ScratchDir(const std::string& parent) {
  static int counter = 0;
  path_ = parent + "/perfbench-" + std::to_string(getpid()) + "-" +
          std::to_string(counter++);
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

}  // namespace perfbench
