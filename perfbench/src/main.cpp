// fms_perfbench — the repository benchmark program.
//
// Usage:
//   fms_perfbench --workload search_iid|search_stale_faulty|retrain_eval
//                 --seed N --seconds S --trace 0|1 --workdir DIR
//
// Generates every input from --seed, runs the workload for about
// --seconds, checks the outputs, prints a human-readable table and, as the
// last line of stdout, one JSON object with the keys correct, attempted,
// failed and metrics. --trace 0 reports the end-to-end metrics; --trace 1
// runs the separate traced run and reports the per-layer metrics.
// Checkpoint and journal files live in fresh directories under --workdir
// that are removed afterwards; the traced run also leaves its spans there
// as JSONL.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "perfbench/src/bench.h"

namespace {

const char* kUsage =
    "usage: fms_perfbench --workload search_iid|search_stale_faulty|"
    "retrain_eval\n"
    "                     --seed N --seconds S --trace 0|1 --workdir DIR\n";

bool parse(int argc, char** argv, perfbench::Options& opt) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && opt.seconds > 0.0;
    } else if (flag == "--trace") {
      have_trace = !std::strcmp(value, "0") || !std::strcmp(value, "1");
      opt.trace = !std::strcmp(value, "1");
    } else if (flag == "--workdir") {
      opt.workdir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && have_seconds && have_trace &&
         !opt.workdir.empty() &&
         (opt.workload == "search_iid" ||
          opt.workload == "search_stale_faulty" ||
          opt.workload == "retrain_eval");
}

// A metric that is not finite fails its check, and so does an end-to-end
// metric that is not positive: each is a time, a rate or a size.
void check_metrics(perfbench::Result& res, bool end_to_end) {
  for (const perfbench::Metric& m : res.metrics) {
    const bool ok = std::isfinite(m.value) && (!end_to_end || m.value > 0.0);
    res.checks.op("metric " + m.name, ok,
                  end_to_end ? "not finite and positive" : "not finite");
  }
}

void print_table(const perfbench::Result& res, const perfbench::Options& opt) {
  std::printf("== %s seed=%llu %s ==\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed),
              opt.trace ? "traced (per-layer)" : "untraced (end-to-end)");
  auto row = [](const perfbench::Metric& m) {
    std::printf("  %-32s %16.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  };
  for (const perfbench::Metric& m : res.metrics) row(m);
  for (const perfbench::Metric& m : res.report) row(m);
  const double error_rate =
      static_cast<double>(res.checks.failed()) /
      static_cast<double>(res.checks.attempted());
  std::printf("  %-32s %16.6g %-6s (%ld failed of %ld checked operations)\n",
              "error_rate", error_rate, "ratio", res.checks.failed(),
              res.checks.attempted());
  for (const std::string& n : res.notes) std::printf("  %s\n", n.c_str());
  for (const std::string& f : res.checks.failures()) {
    std::printf("  FAILED %s\n", f.c_str());
  }
}

void print_json(const perfbench::Result& res) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              res.checks.failed() == 0 ? "true" : "false",
              res.checks.attempted(), res.checks.failed());
  const char* sep = "";
  for (const perfbench::Metric& m : res.metrics) {
    char value[32] = "null";  // JSON has no NaN or infinity
    if (std::isfinite(m.value)) {
      std::snprintf(value, sizeof(value), "%.17g", m.value);
    }
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", sep,
                m.name.c_str(), value, m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  try {
    std::filesystem::create_directories(opt.workdir);
    perfbench::Result res;
    if (opt.workload == "search_iid") {
      res = perfbench::run_search_iid(opt);
    } else if (opt.workload == "search_stale_faulty") {
      res = perfbench::run_search_stale_faulty(opt);
    } else {
      res = perfbench::run_retrain_eval(opt);
    }
    check_metrics(res, !opt.trace);
    print_table(res, opt);
    std::fflush(stdout);
    print_json(res);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fms_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
