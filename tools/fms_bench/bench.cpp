#include "tools/fms_bench/bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

#include "src/common/check.h"
#include "src/common/stopwatch.h"
#include "src/obs/alloc.h"
#include "src/obs/profile.h"
#include "src/obs/work.h"

namespace fms::bench {
namespace {

double percentile(std::vector<double> sorted, double q) {
  FMS_CHECK(!sorted.empty());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

void append_json_number(std::string* out, double v) {
  char buf[64];
  if (!std::isfinite(v)) v = 0.0;
  if (v == std::floor(v) && std::fabs(v) < 9.0e15) {
    // fms-lint: allow(float-eq) -- integral-value check selects the
    // integer formatting; both branches emit valid JSON either way.
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
  }
  *out += buf;
}

void append_json_string(std::string* out, const std::string& s) {
  *out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      *out += '\\';
      *out += c;
    } else {
      *out += c;
    }
  }
  *out += '"';
}

// --- minimal strict parser for the subset to_json emits ---

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    FMS_CHECK_MSG(pos_ < text_.size(), "bench json: unexpected end");
    return text_[pos_];
  }

  void expect(char c) {
    FMS_CHECK_MSG(peek() == c, "bench json: expected '"
                                   << c << "' at offset " << pos_ << ", got '"
                                   << text_[pos_] << "'");
    ++pos_;
  }

  bool consume_if(char c) {
    if (peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      FMS_CHECK_MSG(pos_ < text_.size(), "bench json: unterminated string");
      const char c = text_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        FMS_CHECK_MSG(pos_ < text_.size(), "bench json: bad escape");
        out += text_[pos_++];
      } else {
        out += c;
      }
    }
    return out;
  }

  double parse_number() {
    skip_ws();
    const char* start = text_.c_str() + pos_;
    char* end = nullptr;
    const double v = std::strtod(start, &end);
    FMS_CHECK_MSG(end != start, "bench json: expected number at offset "
                                    << pos_);
    pos_ += static_cast<std::size_t>(end - start);
    return v;
  }

  // Walks an object, invoking fn(key) positioned at each value.
  template <typename Fn>
  void parse_object(Fn&& fn) {
    expect('{');
    if (consume_if('}')) return;
    while (true) {
      const std::string key = parse_string();
      expect(':');
      fn(key);
      if (consume_if(',')) continue;
      expect('}');
      break;
    }
  }

  void skip_value() {
    const char c = peek();
    if (c == '{') {
      parse_object([this](const std::string&) { skip_value(); });
    } else if (c == '"') {
      parse_string();
    } else {
      parse_number();
    }
  }

  bool at_end() {
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  const std::string& text_;
  std::size_t pos_ = 0;
};

BenchResult parse_result(JsonParser* p, const std::string& name) {
  BenchResult r;
  r.name = name;
  p->parse_object([&](const std::string& key) {
    if (key == "median_ns") {
      r.median_ns = p->parse_number();
    } else if (key == "p10_ns") {
      r.p10_ns = p->parse_number();
    } else if (key == "p90_ns") {
      r.p90_ns = p->parse_number();
    } else if (key == "bytes_alloc") {
      r.bytes_alloc = static_cast<std::uint64_t>(p->parse_number());
    } else if (key == "allocs") {
      r.allocs = static_cast<std::uint64_t>(p->parse_number());
    } else if (key == "flops") {
      r.flops = static_cast<std::uint64_t>(p->parse_number());
    } else if (key == "bytes_read") {
      r.bytes_read = static_cast<std::uint64_t>(p->parse_number());
    } else if (key == "bytes_written") {
      r.bytes_written = static_cast<std::uint64_t>(p->parse_number());
    } else if (key == "iters") {
      r.iters = static_cast<int>(p->parse_number());
    } else if (key == "repeats") {
      r.repeats = static_cast<int>(p->parse_number());
    } else if (key == "zones") {
      p->parse_object([&](const std::string& zone) {
        ZoneSummary z;
        p->parse_object([&](const std::string& field) {
          if (field == "calls") {
            z.calls = static_cast<std::uint64_t>(p->parse_number());
          } else if (field == "incl_ns") {
            z.incl_ns = static_cast<std::uint64_t>(p->parse_number());
          } else if (field == "excl_ns") {
            z.excl_ns = static_cast<std::uint64_t>(p->parse_number());
          } else {
            p->skip_value();
          }
        });
        r.zones[zone] = z;
      });
    } else {
      p->skip_value();
    }
  });
  return r;
}

}  // namespace

std::vector<BenchResult> run_benchmarks(
    const std::vector<Benchmark>& list, const RunOptions& opts,
    const std::function<void(const std::string&)>& log) {
  FMS_CHECK(opts.repeats >= 1 && opts.warmup >= 0);
  std::vector<BenchResult> results;
  for (const Benchmark& bench : list) {
    if (!opts.filter.empty() &&
        bench.name.find(opts.filter) == std::string::npos) {
      continue;
    }
    FMS_CHECK_MSG(bench.iters >= 1, "benchmark " << bench.name
                                                 << " needs iters >= 1");
    std::function<void()> iteration = bench.setup();

    for (int w = 0; w < opts.warmup; ++w) {
      for (int i = 0; i < bench.iters; ++i) iteration();
    }

    std::vector<double> per_iter_ns;
    per_iter_ns.reserve(static_cast<std::size_t>(opts.repeats));
    for (int r = 0; r < opts.repeats; ++r) {
      Stopwatch sw;
      for (int i = 0; i < bench.iters; ++i) iteration();
      per_iter_ns.push_back(sw.elapsed_seconds() * 1e9 /
                            static_cast<double>(bench.iters));
    }
    std::sort(per_iter_ns.begin(), per_iter_ns.end());

    BenchResult result;
    result.name = bench.name;
    result.iters = bench.iters;
    result.repeats = opts.repeats;
    result.median_ns = percentile(per_iter_ns, 0.5);
    result.p10_ns = percentile(per_iter_ns, 0.1);
    result.p90_ns = percentile(per_iter_ns, 0.9);

    if (opts.accounting_pass) {
      // Untimed instrumented repetition: zone tree, op cost and alloc
      // ledger. Saved and restored around the pass so the harness
      // composes with externally enabled profiling.
      const bool prof_was = obs::profiling_enabled();
      const obs::AllocStats before_stats = obs::alloc_stats();
      obs::set_profiling_enabled(true);
      obs::reset_profiler();
      obs::reset_alloc_stats();
      for (int i = 0; i < bench.iters; ++i) iteration();
      const obs::AllocStats after = obs::alloc_stats();
      result.bytes_alloc = after.total_bytes;
      result.allocs = after.allocs;
      // collect_profile drops the zeroed husks reset_profiler leaves.
      const obs::ProfileReport report = obs::collect_profile();
      const obs::WorkReport work = obs::collect_work(report);
      result.flops = work.total.flops;
      result.bytes_read = work.total.bytes_read;
      result.bytes_written = work.total.bytes_written;
      for (const obs::ZoneStats& z : report.zones) {
        result.zones[z.path] = ZoneSummary{z.calls, z.incl_ns, z.excl_ns};
      }
      obs::set_profiling_enabled(prof_was);
      obs::restore_alloc_stats(before_stats);
      obs::reset_profiler();
    }

    if (log) {
      char line[200];
      std::snprintf(line, sizeof(line),
                    "%-28s median %12.1f ns  p10 %12.1f  p90 %12.1f  "
                    "alloc %8.1f KB  %7.3f GF/s  ai %5.2f",
                    result.name.c_str(), result.median_ns, result.p10_ns,
                    result.p90_ns,
                    static_cast<double>(result.bytes_alloc) / 1024.0,
                    achieved_gflops(result),
                    bench_arithmetic_intensity(result));
      log(line);
    }
    results.push_back(std::move(result));
  }
  return results;
}

std::string to_json(const std::vector<BenchResult>& results,
                    long long timestamp_unix) {
  std::string out = "{\n  \"schema\": 1,\n  \"timestamp_unix\": ";
  append_json_number(&out, static_cast<double>(timestamp_unix));
  out += ",\n  \"benchmarks\": {";
  bool first = true;
  for (const BenchResult& r : results) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    append_json_string(&out, r.name);
    out += ": {\"median_ns\": ";
    append_json_number(&out, r.median_ns);
    out += ", \"p10_ns\": ";
    append_json_number(&out, r.p10_ns);
    out += ", \"p90_ns\": ";
    append_json_number(&out, r.p90_ns);
    out += ", \"bytes_alloc\": ";
    append_json_number(&out, static_cast<double>(r.bytes_alloc));
    out += ", \"allocs\": ";
    append_json_number(&out, static_cast<double>(r.allocs));
    out += ", \"flops\": ";
    append_json_number(&out, static_cast<double>(r.flops));
    out += ", \"bytes_read\": ";
    append_json_number(&out, static_cast<double>(r.bytes_read));
    out += ", \"bytes_written\": ";
    append_json_number(&out, static_cast<double>(r.bytes_written));
    out += ", \"iters\": ";
    append_json_number(&out, r.iters);
    out += ", \"repeats\": ";
    append_json_number(&out, r.repeats);
    out += ", \"zones\": {";
    bool zfirst = true;
    for (const auto& [path, z] : r.zones) {
      if (!zfirst) out += ", ";
      zfirst = false;
      append_json_string(&out, path);
      out += ": {\"calls\": ";
      append_json_number(&out, static_cast<double>(z.calls));
      out += ", \"incl_ns\": ";
      append_json_number(&out, static_cast<double>(z.incl_ns));
      out += ", \"excl_ns\": ";
      append_json_number(&out, static_cast<double>(z.excl_ns));
      out += "}";
    }
    out += "}}";
  }
  out += "\n  }\n}\n";
  return out;
}

BenchFile parse_bench_json(const std::string& text) {
  JsonParser p(text);
  BenchFile file;
  bool saw_benchmarks = false;
  p.parse_object([&](const std::string& key) {
    if (key == "schema") {
      file.schema = static_cast<int>(p.parse_number());
    } else if (key == "timestamp_unix") {
      file.timestamp_unix = static_cast<long long>(p.parse_number());
    } else if (key == "benchmarks") {
      saw_benchmarks = true;
      p.parse_object([&](const std::string& name) {
        file.benchmarks[name] = parse_result(&p, name);
      });
    } else {
      p.skip_value();
    }
  });
  FMS_CHECK_MSG(p.at_end(), "bench json: trailing content");
  FMS_CHECK_MSG(file.schema == 1,
                "bench json: unsupported schema " << file.schema);
  FMS_CHECK_MSG(saw_benchmarks, "bench json: missing \"benchmarks\"");
  return file;
}

BenchFile load_bench_file(const std::string& path) {
  std::ifstream f(path);
  FMS_CHECK_MSG(f.good(), "cannot open bench file " << path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return parse_bench_json(ss.str());
}

CompareOutcome compare_bench_files(const BenchFile& oldf,
                                   const BenchFile& newf, double gate_pct) {
  FMS_CHECK_MSG(gate_pct >= 0.0, "gate percentage must be >= 0");
  CompareOutcome out;
  out.gate_pct = gate_pct;
  for (const auto& [name, old_result] : oldf.benchmarks) {
    const auto it = newf.benchmarks.find(name);
    if (it == newf.benchmarks.end()) {
      out.only_old.push_back(name);
      continue;
    }
    CompareRow row;
    row.name = name;
    row.old_median_ns = old_result.median_ns;
    row.new_median_ns = it->second.median_ns;
    row.delta_pct = old_result.median_ns > 0.0
                        ? 100.0 * (row.new_median_ns - row.old_median_ns) /
                              row.old_median_ns
                        : 0.0;
    row.regressed = row.delta_pct > gate_pct;
    if (row.regressed) out.ok = false;
    out.rows.push_back(std::move(row));
  }
  for (const auto& [name, result] : newf.benchmarks) {
    (void)result;
    if (oldf.benchmarks.find(name) == oldf.benchmarks.end()) {
      out.only_new.push_back(name);
    }
  }
  return out;
}

double achieved_gflops(const BenchResult& r) {
  if (r.flops == 0 || r.iters <= 0 || r.median_ns <= 0.0) return 0.0;
  const double flops_per_iter =
      static_cast<double>(r.flops) / static_cast<double>(r.iters);
  return flops_per_iter / r.median_ns;  // FLOPs/ns == GFLOP/s
}

double bench_arithmetic_intensity(const BenchResult& r) {
  const std::uint64_t bytes = r.bytes_read + r.bytes_written;
  if (bytes == 0) return 0.0;
  return static_cast<double>(r.flops) / static_cast<double>(bytes);
}

std::string history_row_json(const std::vector<BenchResult>& results,
                             const std::string& git_sha,
                             long long timestamp_unix) {
  std::string out = "{\"schema\": 1, \"git_sha\": ";
  append_json_string(&out, git_sha);
  out += ", \"timestamp_unix\": ";
  append_json_number(&out, static_cast<double>(timestamp_unix));
  out += ", \"benchmarks\": {";
  bool first = true;
  for (const BenchResult& r : results) {
    if (!first) out += ", ";
    first = false;
    append_json_string(&out, r.name);
    out += ": {\"median_ns\": ";
    append_json_number(&out, r.median_ns);
    out += ", \"gflops\": ";
    append_json_number(&out, achieved_gflops(r));
    out += ", \"ai\": ";
    append_json_number(&out, bench_arithmetic_intensity(r));
    out += "}";
  }
  out += "}}";
  return out;
}

void append_history_row(const std::string& path, const std::string& row) {
  std::ofstream f(path, std::ios::app);
  FMS_CHECK_MSG(f.good(), "cannot open history file " << path);
  f << row << "\n";
}

std::string format_compare(const CompareOutcome& outcome) {
  std::string out;
  char line[200];
  std::snprintf(line, sizeof(line), "%-28s %14s %14s %9s  %s\n", "benchmark",
                "old_median_ns", "new_median_ns", "delta", "verdict");
  out += line;
  for (const CompareRow& row : outcome.rows) {
    std::snprintf(line, sizeof(line), "%-28s %14.1f %14.1f %+8.1f%%  %s\n",
                  row.name.c_str(), row.old_median_ns, row.new_median_ns,
                  row.delta_pct,
                  row.regressed ? "REGRESSED" : "ok");
    out += line;
  }
  for (const std::string& name : outcome.only_old) {
    std::snprintf(line, sizeof(line), "%-28s only in old file (removed?)\n",
                  name.c_str());
    out += line;
  }
  for (const std::string& name : outcome.only_new) {
    std::snprintf(line, sizeof(line), "%-28s only in new file (not gated)\n",
                  name.c_str());
    out += line;
  }
  std::snprintf(line, sizeof(line), "gate: %.1f%% -> %s\n", outcome.gate_pct,
                outcome.ok ? "PASS" : "FAIL");
  out += line;
  return out;
}

}  // namespace fms::bench
