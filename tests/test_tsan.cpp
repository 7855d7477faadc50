// Concurrency-contention tests (ctest label: tsan).
//
// These run in every build, but their real job is a -DFMS_SANITIZE=thread
// build: `ctest -L tsan` must come back with zero reported races. They
// hammer exactly the surfaces the repo promises are thread-safe — the
// ThreadPool, concurrent MetricsRegistry recording from many threads,
// whole FederatedSearch rounds running in parallel against the shared
// global Telemetry context, and the staged round's parallel train stage,
// whose every published artifact must not depend on the thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/core/search.h"
#include "src/data/synth.h"
#include "src/obs/metrics.h"
#include "src/obs/sinks.h"
#include "src/obs/telemetry.h"
#include "src/obs/trace_ctx.h"

namespace fms {
namespace {

TEST(TsanThreadPool, ParallelForUnderContention) {
  ThreadPool pool(4);
  constexpr std::size_t kTasks = 2000;
  std::vector<int> hits(kTasks, 0);
  std::atomic<std::uint64_t> sum{0};
  for (int round = 0; round < 5; ++round) {
    pool.parallel_for(kTasks, [&](std::size_t i) {
      hits[i] += 1;  // disjoint per index: must be race-free by design
      sum.fetch_add(i, std::memory_order_relaxed);
    });
  }
  for (std::size_t i = 0; i < kTasks; ++i) EXPECT_EQ(hits[i], 5);
  EXPECT_EQ(sum.load(), 5ULL * (kTasks * (kTasks - 1) / 2));
}

TEST(TsanThreadPool, ExceptionUnderContentionStillJoins) {
  ThreadPool pool(4);
  for (int attempt = 0; attempt < 20; ++attempt) {
    EXPECT_THROW(
        pool.parallel_for(64,
                          [](std::size_t i) {
                            if (i % 16 == 3) throw CheckError("expected");
                          }),
        CheckError);
  }
}

TEST(TsanThreadPool, LowestFailingIndexWinsRegardlessOfScheduling) {
  // Two indices throw. Whichever worker fails first, the caller must see
  // the lower index's exception — the one a serial loop raises.
  ThreadPool pool(4);
  for (int attempt = 0; attempt < 200; ++attempt) {
    std::string caught;
    try {
      pool.parallel_for(32, [](std::size_t i) {
        if (i == 5) throw CheckError("index 5");
        if (i == 29) throw CheckError("index 29");
      });
    } catch (const CheckError& e) {
      caught = e.what();
    }
    ASSERT_EQ(caught, "index 5") << "attempt " << attempt;
  }
}

TEST(TsanMetrics, ConcurrentRecordingIsExact) {
  obs::MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kOps = 4000;
  // Pre-create one shared histogram so every thread contends on the same
  // instrument as well as on registry name lookup.
  obs::Histogram& shared = reg.histogram("tsan.shared", {1.0, 10.0, 100.0});
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, &shared, t] {
      for (int i = 0; i < kOps; ++i) {
        reg.counter("tsan.counter." + std::to_string(t % 4)).add(1);
        reg.gauge("tsan.gauge").add(1.0);
        shared.observe(static_cast<double>(i % 128));
        reg.histogram("tsan.shared", {}).observe(0.5);
      }
    });
  }
  // Snapshots race against the writers on purpose; values they read are
  // transient but the calls must be safe.
  for (int s = 0; s < 50; ++s) (void)reg.snapshot();
  for (auto& th : threads) th.join();

  std::uint64_t counted = 0;
  for (int c = 0; c < 4; ++c) {
    counted += reg.counter("tsan.counter." + std::to_string(c)).value();
  }
  EXPECT_EQ(counted, static_cast<std::uint64_t>(kThreads) * kOps);
  EXPECT_DOUBLE_EQ(reg.gauge("tsan.gauge").value(),
                   static_cast<double>(kThreads) * kOps);
  EXPECT_EQ(shared.count(), 2ULL * kThreads * kOps);
}

SearchConfig tsan_config(std::uint64_t seed) {
  SearchConfig cfg;
  cfg.supernet.num_cells = 2;
  cfg.supernet.num_nodes = 2;
  cfg.supernet.stem_channels = 4;
  cfg.supernet.image_size = 8;
  cfg.schedule.batch_size = 8;
  cfg.schedule.num_participants = 3;
  cfg.seed = seed;
  return cfg;
}

struct RunResult {
  std::vector<double> rewards;
  std::vector<std::size_t> bytes_down;
};

RunResult run_rounds(std::uint64_t seed) {
  Rng rng(seed);
  SynthSpec spec;
  spec.train_size = 96;
  spec.test_size = 24;
  spec.image_size = 8;
  TrainTest tt = make_synth_c10(spec, rng);
  SearchConfig cfg = tsan_config(seed);
  auto parts =
      iid_partition(tt.train.size(), cfg.schedule.num_participants, rng);
  FederatedSearch search(cfg, tt.train, parts);
  search.run_warmup(2);
  SearchOptions opts;
  auto records = search.run_search(4, opts);
  RunResult out;
  for (const auto& r : records) {
    out.rewards.push_back(r.mean_reward);
    out.bytes_down.push_back(r.bytes_down);
  }
  return out;
}

TEST(TsanSearch, ParallelRoundsOnSharedTelemetryStayDeterministic) {
  // Two full searches run simultaneously, both recording spans and
  // metrics into the shared global Telemetry registry. TSan checks the
  // registry/sink locking; the assertions check that concurrency cannot
  // leak between searches — each thread's trajectory must be bitwise
  // identical to the same search run serially.
  obs::set_telemetry_enabled(true);
  obs::Telemetry::instance().registry().reset();

  RunResult parallel_a;
  RunResult parallel_b;
  {
    std::thread ta([&] { parallel_a = run_rounds(11); });
    std::thread tb([&] { parallel_b = run_rounds(23); });
    ta.join();
    tb.join();
  }
  const RunResult serial_a = run_rounds(11);
  const RunResult serial_b = run_rounds(23);

  obs::set_telemetry_enabled(false);
  obs::Telemetry::instance().registry().reset();

  EXPECT_EQ(parallel_a.rewards, serial_a.rewards);
  EXPECT_EQ(parallel_a.bytes_down, serial_a.bytes_down);
  EXPECT_EQ(parallel_b.rewards, serial_b.rewards);
  EXPECT_EQ(parallel_b.bytes_down, serial_b.bytes_down);
}

TEST(TsanTrace, JsonlWriterIsLineAtomicUnderThreadPool) {
  // N pool workers blast interleaved span events at one JsonlTraceWriter.
  // The sink's contract is line atomicity: the file must hold exactly one
  // complete, parseable JSON object per line no matter how writes race.
  const std::string path = "fms_tsan_trace.jsonl";
  constexpr std::size_t kEvents = 2000;
  constexpr int kWorkers = 8;
  {
    obs::JsonlTraceWriter writer(path);
    ThreadPool pool(kWorkers);
    pool.parallel_for(kEvents, [&](std::size_t i) {
      obs::TraceEvent ev;
      ev.type = "span";
      ev.name = "tsan.zone." + std::to_string(i % 5);
      ev.round = static_cast<int>(i);
      ev.label = "tsan";
      ev.fields.emplace_back("dur_s", 1e-6 * static_cast<double>(i));
      ev.fields.emplace_back("worker", static_cast<double>(i % kWorkers));
      writer.write(ev);
    });
    writer.flush();
    EXPECT_EQ(writer.events_written(), kEvents);
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::size_t lines = 0;
  std::string line;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty()) << "blank line " << lines;
    // One balanced JSON object per line — a torn write would break the
    // brace balance or leave an unterminated string.
    ASSERT_EQ(line.front(), '{') << "line " << lines;
    ASSERT_EQ(line.back(), '}') << "line " << lines;
    ASSERT_NE(line.find("\"type\":\"span\""), std::string::npos)
        << "line " << lines;
    ASSERT_NE(line.find("\"dur_s\":"), std::string::npos) << "line " << lines;
    ++lines;
  }
  EXPECT_EQ(lines, kEvents);
  std::remove(path.c_str());
}

// Everything a staged round publishes, for a byte comparison across
// thread counts.
struct RunArtifacts {
  std::vector<std::vector<std::uint8_t>> records;  // canonical() bytes
  std::vector<std::uint8_t> checkpoint;
  std::string journal;
  std::string chrome;
  std::string flight;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

RunArtifacts run_hostile_search(int threads) {
  const std::string dir =
      ::testing::TempDir() + "/fms_threads_" + std::to_string(threads);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  Rng rng(61);
  SynthSpec spec;
  spec.train_size = 192;
  spec.test_size = 24;
  spec.image_size = 8;
  TrainTest tt = make_synth_c10(spec, rng);
  SearchConfig cfg = tsan_config(61);
  cfg.schedule.num_participants = 6;
  cfg.threads = threads;
  cfg.telemetry.enabled = true;
  cfg.telemetry.health = true;
  cfg.telemetry.trace_chrome_path = dir + "/trace.json";
  cfg.telemetry.flight_recorder = 16;
  cfg.telemetry.flight_dump_path = dir + "/flight.jsonl";
  auto parts = dirichlet_partition(tt.train.labels(), 10,
                                   cfg.schedule.num_participants, 0.5, rng);

  SearchOptions opts;
  opts.stale_policy = StalePolicy::kCompensate;
  opts.staleness = StalenessDistribution::severe();
  opts.fault_plan = FaultPlan::parse(
      "crash=0.2,crash_round=2,corrupt=0.1,divergent=0.15,sign_flip=0.2,"
      "link=0.1,uplink=0.1,seed=8");
  opts.churn_plan = ChurnPlan::parse("leave=0.15,away_min=1,away_max=3,seed=9");
  opts.quorum = 0.75;
  opts.degrade.max_mode = 3;
  opts.checkpoint_every = 3;
  opts.checkpoint_path = dir + "/ck.bin";

  RunArtifacts out;
  {
    FederatedSearch search(cfg, tt.train, parts);
    search.enable_journal(dir + "/wal.bin", opts.fault_plan);
    std::vector<RoundRecord> records = search.run_warmup(2);
    for (RoundRecord& r : search.run_search(7, opts)) {
      records.push_back(std::move(r));
    }
    for (const RoundRecord& r : records) {
      ByteWriter w;
      r.canonical().serialize(w);
      out.records.push_back(w.take());
    }
    out.checkpoint = search.checkpoint().serialize();
  }  // the destructor exports the Chrome trace
  out.journal = slurp(dir + "/wal.bin");
  out.chrome = slurp(dir + "/trace.json");
  out.flight = slurp(dir + "/flight.jsonl");
  obs::set_telemetry_enabled(false);
  obs::set_tracing_enabled(false);
  obs::TraceContext::instance().reset();
  obs::Telemetry::instance().clear_sinks();
  obs::Telemetry::instance().registry().reset();
  return out;
}

TEST(TsanSearch, ThreadCountLeavesEveryArtifactByteIdentical) {
  // Staleness + DC, payload/Byzantine/link faults, churn, the degradation
  // ladder, journal and auto-checkpoints: the hardest round the substrate
  // runs must publish the same bytes whether 1, 2 or 4 workers train.
  const RunArtifacts serial = run_hostile_search(1);
  ASSERT_EQ(serial.records.size(), 9U);
  EXPECT_FALSE(serial.journal.empty());
  EXPECT_FALSE(serial.chrome.empty());
  EXPECT_FALSE(serial.flight.empty()) << "no flight dump was triggered";
  for (const int threads : {2, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const RunArtifacts got = run_hostile_search(threads);
    ASSERT_EQ(got.records.size(), serial.records.size());
    for (std::size_t r = 0; r < got.records.size(); ++r) {
      EXPECT_EQ(got.records[r], serial.records[r]) << "round " << r;
    }
    EXPECT_EQ(got.checkpoint, serial.checkpoint);
    EXPECT_EQ(got.journal, serial.journal);
    EXPECT_EQ(got.chrome, serial.chrome);
    EXPECT_EQ(got.flight, serial.flight);
  }
}

}  // namespace
}  // namespace fms
