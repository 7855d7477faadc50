// Tests for the deterministic work ledger and the machine-peak
// calibration (src/obs/work.*, src/obs/roofline.*): exact pinned
// FLOP/byte counts for known shapes, ledger accumulation / merge /
// reset semantics, coverage of the search hot path, a ledger identical
// across thread counts, the peak JSON sidecar round-trip, and — the
// load-bearing guarantee — bit-identical search results with profiling
// (and so the ledger) on versus off.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/search.h"
#include "src/data/synth.h"
#include "src/fed/messages.h"
#include "src/net/transmission.h"
#include "src/obs/roofline.h"
#include "src/obs/telemetry.h"
#include "src/obs/work.h"
#include "src/tensor/tensor.h"

namespace fms {
namespace {

// Every test drives the process-global profiling flag; start and end clean
// so ordering between tests (and other test files) is moot.
class WorkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_telemetry_enabled(false);
    obs::set_profiling_enabled(false);
    obs::reset_profiler();
    obs::Telemetry::instance().clear_sinks();
    obs::Telemetry::instance().registry().reset();
  }
  void TearDown() override { SetUp(); }
};

struct TinyWorld {
  TrainTest data;
  std::vector<std::vector<int>> partition;
  SearchConfig cfg;
};

// Callers must keep the returned TinyWorld at a stable address before
// constructing a FederatedSearch from it: participants keep pointers
// into `data`.
TinyWorld make_tiny_world(std::uint64_t seed) {
  Rng rng(seed);
  SynthSpec spec;
  spec.train_size = 160;
  spec.test_size = 40;
  spec.image_size = 8;
  TrainTest data = make_synth_c10(spec, rng);
  SearchConfig cfg;
  cfg.supernet.num_cells = 3;
  cfg.supernet.num_nodes = 2;
  cfg.supernet.stem_channels = 4;
  cfg.supernet.image_size = 8;
  cfg.schedule.batch_size = 8;
  cfg.schedule.num_participants = 4;
  cfg.seed = seed;
  auto partition =
      iid_partition(data.train.size(), cfg.schedule.num_participants, rng);
  return TinyWorld{std::move(data), std::move(partition), cfg};
}

const obs::WorkRow* find_op(const obs::WorkReport& report,
                            const std::string& op) {
  for (const obs::WorkRow& row : report.rows) {
    if (row.op == op) return &row;
  }
  return nullptr;
}

TEST_F(WorkTest, CostModelsArePinnedForKnownShapes) {
  // The bench conv3x3 shape: x = {4,8,8,8}, Conv2d(8 -> 8, 3x3, pad 1),
  // so the output is {4,8,8,8} too. macs = 2048 * 8 * 3 * 3 = 147456.
  const obs::OpCost conv = obs::conv2d_fwd_cost(4, 8, 8, 8, 8, 3, 3, 8, 8, 1);
  EXPECT_EQ(conv.flops, 294912U);                 // 2 * macs
  EXPECT_EQ(conv.bytes_read, 4U * (2048 + 576));  // x + w, once each
  EXPECT_EQ(conv.bytes_written, 4U * 2048);       // y
  EXPECT_EQ(conv.elements, 2048U);

  const obs::OpCost convb =
      obs::conv2d_bwd_cost(4, 8, 8, 8, 8, 3, 3, 8, 8, 1);
  EXPECT_EQ(convb.flops, 589824U);  // grad_x + grad_w GEMMs, 2 * macs each
  EXPECT_EQ(convb.bytes_read, 4U * (2048 + 2048 + 576));
  EXPECT_EQ(convb.bytes_written, 4U * (2048 + 576));
  EXPECT_EQ(convb.elements, 2048U + 576U);

  const obs::OpCost mm = obs::matmul_cost(2, 3, 4);
  EXPECT_EQ(mm.flops, 48U);           // 2 * 2 * 3 * 4
  EXPECT_EQ(mm.bytes_read, 72U);      // 4 * (6 + 12)
  EXPECT_EQ(mm.bytes_written, 32U);   // 4 * 8
  EXPECT_EQ(mm.elements, 8U);

  const obs::OpCost bn = obs::batchnorm_fwd_cost(4, 8, 8, 8, true);
  EXPECT_EQ(bn.flops, 8U * 2048 + 10U * 8);
  EXPECT_EQ(bn.bytes_read, 4U * (2048 + 32));
  EXPECT_EQ(bn.bytes_written, 4U * (2 * 2048 + 16));
  EXPECT_EQ(bn.elements, 2048U);
  const obs::OpCost bn_eval = obs::batchnorm_fwd_cost(4, 8, 8, 8, false);
  EXPECT_EQ(bn_eval.flops, 4U * 2048 + 3U * 8);
  EXPECT_EQ(bn_eval.bytes_written, 4U * 2048);

  const obs::OpCost mean = obs::agg_mean_cost(10, 100);
  EXPECT_EQ(mean.flops, 1100U);          // m*d sums + d scales
  EXPECT_EQ(mean.bytes_read, 4000U);     // every update, once
  EXPECT_EQ(mean.bytes_written, 400U);   // the aggregate
  EXPECT_EQ(mean.elements, 100U);

  // ceil_log2 drives the sort-based estimators.
  EXPECT_EQ(obs::ceil_log2(1), 0U);
  EXPECT_EQ(obs::ceil_log2(2), 1U);
  EXPECT_EQ(obs::ceil_log2(3), 2U);
  EXPECT_EQ(obs::ceil_log2(8), 3U);
  EXPECT_EQ(obs::ceil_log2(10), 4U);
  const obs::OpCost med = obs::agg_coordinate_median_cost(10, 7);
  EXPECT_EQ(med.flops, 7U * (10 * 4 + 1));

  const obs::OpCost axpy = obs::axpy_cost(64);
  EXPECT_EQ(axpy.flops, 64U);
  EXPECT_EQ(axpy.bytes_read, 512U);   // y read-modify-write + x
  EXPECT_EQ(axpy.bytes_written, 256U);

  // Arithmetic intensity is FLOPs per byte moved, both directions.
  EXPECT_DOUBLE_EQ(obs::arithmetic_intensity(mm),
                   48.0 / (72.0 + 32.0));
  EXPECT_DOUBLE_EQ(obs::arithmetic_intensity(obs::OpCost{}), 0.0);
}

TEST_F(WorkTest, LedgerAccumulatesMergesDeterministicallyAndResets) {
  obs::set_profiling_enabled(true);
  obs::reset_profiler();
  { FMS_OP("test.op_b", obs::matmul_cost(2, 3, 4)); }
  { FMS_OP("test.op_a", obs::axpy_cost(10)); }
  { FMS_OP("test.op_b", obs::matmul_cost(2, 3, 4)); }
  const obs::WorkReport first = obs::collect_work();
  const obs::WorkReport second = obs::collect_work();
  obs::set_profiling_enabled(false);

  ASSERT_EQ(first.rows.size(), 2U);
  // Rows come back in lexicographic op order regardless of record order.
  EXPECT_EQ(first.rows[0].op, "test.op_a");
  EXPECT_EQ(first.rows[1].op, "test.op_b");
  EXPECT_EQ(first.rows[1].calls, 2U);
  EXPECT_EQ(first.rows[1].cost.flops, 96U);
  EXPECT_EQ(first.rows[1].cost.bytes_read, 144U);
  EXPECT_EQ(first.total_calls, 3U);
  EXPECT_EQ(first.total.flops, 96U + 10U);

  // Collection must be a pure read: identical back-to-back reports.
  ASSERT_EQ(second.rows.size(), first.rows.size());
  for (std::size_t i = 0; i < first.rows.size(); ++i) {
    EXPECT_EQ(first.rows[i].op, second.rows[i].op);
    EXPECT_EQ(first.rows[i].calls, second.rows[i].calls);
    EXPECT_EQ(first.rows[i].cost.flops, second.rows[i].cost.flops);
  }

  obs::reset_profiler();
  EXPECT_TRUE(obs::collect_work().rows.empty());
  EXPECT_EQ(obs::collect_work().total_calls, 0U);
}

TEST_F(WorkTest, DisabledLedgerRecordsNothingAndEvaluatesNoCost) {
  int evaluations = 0;
  auto costed = [&] {
    ++evaluations;
    return obs::axpy_cost(8);
  };
  { FMS_OP("test.never", costed()); }
  EXPECT_EQ(evaluations, 0);  // cost expression must not run when off
  EXPECT_TRUE(obs::collect_work().rows.empty());
}

TEST_F(WorkTest, TensorAxpyIsRecorded) {
  obs::set_profiling_enabled(true);
  obs::reset_profiler();
  Tensor a({64}, 1.0F);
  const Tensor b({64}, 2.0F);
  a += b;
  const obs::WorkReport report = obs::collect_work();
  obs::set_profiling_enabled(false);

  const obs::WorkRow* axpy = find_op(report, "tensor.axpy");
  ASSERT_NE(axpy, nullptr);
  EXPECT_EQ(axpy->calls, 1U);
  EXPECT_EQ(axpy->cost.flops, 64U);
  EXPECT_EQ(axpy->cost.bytes_written, 256U);
}

TEST_F(WorkTest, SearchLedgerCoversHotOpsAndOnOffIsBitIdentical) {
  // Two runs of the same seeded search, ledger off then on: the ledger
  // only observes, so every round record and the derived genotype must
  // match bit for bit — and the on-run must have charged the hot ops.
  SearchOptions opts;
  obs::WorkReport on_report;
  auto run = [&](bool tracked) {
    TinyWorld w = make_tiny_world(55);
    FederatedSearch search(w.cfg, w.data.train, w.partition);
    obs::set_profiling_enabled(tracked);
    obs::reset_profiler();
    search.run_warmup(1);
    std::vector<RoundRecord> records = search.run_search(3, opts);
    const Genotype genotype = search.derive();
    if (tracked) on_report = obs::collect_work();
    obs::set_profiling_enabled(false);
    return std::make_pair(std::move(records), genotype.to_string());
  };
  const auto off = run(false);
  const auto on = run(true);

  ASSERT_EQ(off.first.size(), on.first.size());
  for (std::size_t i = 0; i < off.first.size(); ++i) {
    EXPECT_EQ(off.first[i].mean_reward, on.first[i].mean_reward);  // fms-lint: allow(float-eq) -- bit-identity is the contract
    EXPECT_EQ(off.first[i].moving_avg, on.first[i].moving_avg);  // fms-lint: allow(float-eq) -- bit-identity is the contract
    EXPECT_EQ(off.first[i].baseline, on.first[i].baseline);  // fms-lint: allow(float-eq) -- bit-identity is the contract
    EXPECT_EQ(off.first[i].arrived, on.first[i].arrived);
  }
  EXPECT_EQ(off.second, on.second);

  for (const char* op : {"nn.conv_fwd", "nn.conv_bwd", "nn.bn_fwd",
                         "nn.relu_fwd", "agg.mean", "tensor.axpy"}) {
    const obs::WorkRow* row = find_op(on_report, op);
    ASSERT_NE(row, nullptr) << "missing hot op " << op;
    EXPECT_GT(row->calls, 0U) << op;
  }
  EXPECT_GT(on_report.total.flops, 0U);
  EXPECT_GT(on_report.total.bytes_read, 0U);
}

TEST_F(WorkTest, SearchLedgerIsReproducibleAcrossRuns) {
  // The counts themselves are part of the deterministic surface: two
  // identical searches must produce identical ledgers, exactly.
  SearchOptions opts;
  std::vector<obs::WorkReport> reports;
  for (int run = 0; run < 2; ++run) {
    TinyWorld w = make_tiny_world(77);
    FederatedSearch search(w.cfg, w.data.train, w.partition);
    obs::set_profiling_enabled(true);
    obs::reset_profiler();
    search.run_warmup(1);
    search.run_search(2, opts);
    reports.push_back(obs::collect_work());
    obs::set_profiling_enabled(false);
    obs::reset_profiler();
  }
  ASSERT_EQ(reports[0].rows.size(), reports[1].rows.size());
  for (std::size_t i = 0; i < reports[0].rows.size(); ++i) {
    EXPECT_EQ(reports[0].rows[i].op, reports[1].rows[i].op);
    EXPECT_EQ(reports[0].rows[i].calls, reports[1].rows[i].calls);
    EXPECT_EQ(reports[0].rows[i].cost.flops, reports[1].rows[i].cost.flops);
    EXPECT_EQ(reports[0].rows[i].cost.bytes_read,
              reports[1].rows[i].cost.bytes_read);
    EXPECT_EQ(reports[0].rows[i].cost.bytes_written,
              reports[1].rows[i].cost.bytes_written);
    EXPECT_EQ(reports[0].rows[i].cost.elements,
              reports[1].rows[i].cost.elements);
  }
}

TEST_F(WorkTest, LedgerAndZoneCallsAreIdenticalAcrossThreadCounts) {
  // With threads > 1 participants train on pool workers, which re-open
  // the submitting thread's zone path (ZonePathScope). Those re-opened
  // zones must add neither calls nor cost: the ledger and every zone's
  // call counts match the serial run exactly.
  SearchOptions opts;
  auto run = [&](int threads) {
    TinyWorld w = make_tiny_world(63);
    w.cfg.threads = threads;
    FederatedSearch search(w.cfg, w.data.train, w.partition);
    obs::set_profiling_enabled(true);
    obs::reset_profiler();
    search.run_warmup(1);
    search.run_search(2, opts);
    const obs::ProfileReport profile = obs::collect_profile();
    obs::set_profiling_enabled(false);
    return profile;
  };
  const obs::ProfileReport serial = run(1);
  const obs::ProfileReport parallel = run(4);

  const obs::WorkReport a = obs::collect_work(serial);
  const obs::WorkReport b = obs::collect_work(parallel);
  ASSERT_FALSE(a.rows.empty());
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    SCOPED_TRACE(a.rows[i].op);
    EXPECT_EQ(a.rows[i].op, b.rows[i].op);
    EXPECT_EQ(a.rows[i].calls, b.rows[i].calls);
    EXPECT_EQ(a.rows[i].cost.flops, b.rows[i].cost.flops);
    EXPECT_EQ(a.rows[i].cost.bytes_read, b.rows[i].cost.bytes_read);
    EXPECT_EQ(a.rows[i].cost.bytes_written, b.rows[i].cost.bytes_written);
    EXPECT_EQ(a.rows[i].cost.elements, b.rows[i].cost.elements);
  }
  ASSERT_EQ(serial.zones.size(), parallel.zones.size());
  for (std::size_t i = 0; i < serial.zones.size(); ++i) {
    SCOPED_TRACE(serial.zones[i].path);
    EXPECT_EQ(serial.zones[i].path, parallel.zones[i].path);
    EXPECT_EQ(serial.zones[i].calls, parallel.zones[i].calls);
    EXPECT_EQ(serial.zones[i].costed_calls, parallel.zones[i].costed_calls);
  }
}

TEST_F(WorkTest, NetTransmissionBooksLinkArraysNotWireBytes) {
  // Per link the latency model reads model_bytes, bandwidth_bps and
  // assignment and writes one latency. The simulated wire payload is not
  // memory traffic: 50 MiB models cost what 50 B ones do.
  const std::uint64_t per_link_in =
      sizeof(std::size_t) + sizeof(double) + sizeof(int);
  const obs::OpCost cost = obs::net_transmission_cost(50);
  EXPECT_EQ(cost.flops, 200U);
  EXPECT_EQ(cost.bytes_read, 50U * per_link_in);
  EXPECT_EQ(cost.bytes_written, 50U * sizeof(double));
  EXPECT_EQ(cost.elements, 50U);

  obs::set_profiling_enabled(true);
  obs::reset_profiler();
  const std::vector<std::size_t> model_bytes(4, std::size_t{50} << 20);
  const LatencyStats stats = transmission_latency(
      model_bytes, std::vector<double>(4, 1e6), {0, 1, 2, 3}, false);
  const obs::ProfileReport profile = obs::collect_profile();
  obs::set_profiling_enabled(false);

  EXPECT_GT(stats.max_seconds, 0.0);
  const obs::WorkReport work = obs::collect_work(profile);
  const obs::WorkRow* row = find_op(work, "net.transmission");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->calls, 1U);
  EXPECT_EQ(row->cost.bytes_read, 4U * per_link_in);
  EXPECT_EQ(row->cost.bytes_written, 4U * sizeof(double));
  // One op, one name: the zone that times it is the one that costs it.
  ASSERT_EQ(profile.zones.size(), 1U);
  EXPECT_EQ(profile.zones[0].path, "net.transmission");
}

TEST_F(WorkTest, MessageCodecsRecordPayloadBytes) {
  // Wire codecs move bytes, not FLOPs: each serialize/deserialize books
  // the payload once on each side of the convention.
  obs::set_profiling_enabled(true);
  obs::reset_profiler();
  UpdateMsg msg;
  msg.round = 3;
  msg.participant = 1;
  msg.reward = 0.5F;
  msg.grads = {1.0F, 2.0F, 3.0F};
  const std::vector<std::uint8_t> wire = msg.serialize();
  const UpdateMsg back = UpdateMsg::deserialize(wire);
  const obs::WorkReport report = obs::collect_work();
  obs::set_profiling_enabled(false);

  EXPECT_EQ(back.round, 3);
  const obs::WorkRow* enc = find_op(report, "fed.encode");
  const obs::WorkRow* dec = find_op(report, "fed.decode");
  ASSERT_NE(enc, nullptr);
  ASSERT_NE(dec, nullptr);
  EXPECT_EQ(enc->calls, 1U);
  EXPECT_EQ(enc->cost.flops, 0U);
  EXPECT_EQ(enc->cost.bytes_written, wire.size());
  EXPECT_EQ(enc->cost.elements, wire.size());
  EXPECT_EQ(dec->cost.bytes_read, wire.size());
}

TEST_F(WorkTest, WorkTableRendersSortedByFlops) {
  obs::set_profiling_enabled(true);
  obs::reset_profiler();
  { FMS_OP("test.light", obs::axpy_cost(4)); }
  { FMS_OP("test.heavy", obs::matmul_cost(64, 64, 64)); }
  const obs::WorkReport report = obs::collect_work();
  obs::set_profiling_enabled(false);

  const std::string table = obs::work_table(report);
  EXPECT_NE(table.find("mflops"), std::string::npos);
  const std::size_t heavy = table.find("test.heavy");
  const std::size_t light = table.find("test.light");
  ASSERT_NE(heavy, std::string::npos);
  ASSERT_NE(light, std::string::npos);
  EXPECT_LT(heavy, light);  // heaviest op first
}

TEST_F(WorkTest, EmitWorkTelemetrySetsPerOpGauges) {
  obs::set_profiling_enabled(true);
  obs::reset_profiler();
  { FMS_OP("test.emit", obs::matmul_cost(2, 3, 4)); }
  const obs::WorkReport report = obs::collect_work();
  obs::set_profiling_enabled(false);

  obs::set_telemetry_enabled(true);
  obs::emit_work_telemetry(report);
  obs::MetricsRegistry& reg = obs::Telemetry::instance().registry();
  EXPECT_DOUBLE_EQ(reg.gauge("fms.work.test.emit.flops").value(), 48.0);
  EXPECT_DOUBLE_EQ(reg.gauge("fms.work.test.emit.calls").value(), 1.0);
  obs::set_telemetry_enabled(false);
}

TEST_F(WorkTest, PeakJsonRoundTripsExactly) {
  obs::MachinePeak peak;
  peak.scalar_gflops = 3.14159265358979312;
  peak.vector_gflops = 42.5;
  peak.stream_gbps = 17.25;
  peak.calibrated_ms = 12.0;
  obs::MachinePeak back;
  ASSERT_TRUE(obs::parse_machine_peak(obs::peak_to_json(peak), &back));
  EXPECT_EQ(back.scalar_gflops, peak.scalar_gflops);  // fms-lint: allow(float-eq) -- %.17g round-trip is exact
  EXPECT_EQ(back.vector_gflops, peak.vector_gflops);  // fms-lint: allow(float-eq) -- %.17g round-trip is exact
  EXPECT_EQ(back.stream_gbps, peak.stream_gbps);  // fms-lint: allow(float-eq) -- %.17g round-trip is exact
  EXPECT_EQ(back.calibrated_ms, peak.calibrated_ms);  // fms-lint: allow(float-eq) -- %.17g round-trip is exact

  obs::MachinePeak reject;
  EXPECT_FALSE(obs::parse_machine_peak("{\"schema\": 2}", &reject));
  EXPECT_FALSE(obs::parse_machine_peak("not json", &reject));
  // A peak with a zero component is invalid and must not parse.
  peak.stream_gbps = 0.0;
  EXPECT_FALSE(obs::parse_machine_peak(obs::peak_to_json(peak), &reject));
}

TEST_F(WorkTest, LoadOrCalibrateUsesTheCacheWithoutRemeasuring) {
  const std::string path = "fms_test_peak_cache.json";
  obs::MachinePeak cached;
  cached.scalar_gflops = 1.5;
  cached.vector_gflops = 9.75;
  cached.stream_gbps = 4.25;
  cached.calibrated_ms = 7.0;
  {
    std::ofstream out(path);
    out << obs::peak_to_json(cached);
  }
  // A valid sidecar is authoritative: the values (calibrated_ms
  // included) come back exactly, proving no re-calibration happened.
  const obs::MachinePeak loaded = obs::load_or_calibrate(path);
  EXPECT_EQ(loaded.scalar_gflops, cached.scalar_gflops);  // fms-lint: allow(float-eq) -- cache hit must be exact
  EXPECT_EQ(loaded.vector_gflops, cached.vector_gflops);  // fms-lint: allow(float-eq) -- cache hit must be exact
  EXPECT_EQ(loaded.stream_gbps, cached.stream_gbps);  // fms-lint: allow(float-eq) -- cache hit must be exact
  EXPECT_EQ(loaded.calibrated_ms, cached.calibrated_ms);  // fms-lint: allow(float-eq) -- cache hit must be exact

  // A corrupt sidecar falls back to calibration and rewrites the file.
  {
    std::ofstream out(path);
    out << "garbage";
  }
  const obs::MachinePeak fresh = obs::load_or_calibrate(path);
  EXPECT_TRUE(fresh.valid());
  std::ifstream in(path);
  std::string rewritten((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  obs::MachinePeak reparsed;
  EXPECT_TRUE(obs::parse_machine_peak(rewritten, &reparsed));
  std::remove(path.c_str());
}

TEST_F(WorkTest, RooflineCeilingIsMinOfComputeAndBandwidth) {
  obs::MachinePeak peak;
  peak.scalar_gflops = 10.0;
  peak.vector_gflops = 100.0;
  peak.stream_gbps = 10.0;
  EXPECT_DOUBLE_EQ(obs::roofline_gflops(peak, 5.0), 50.0);    // memory-bound
  EXPECT_DOUBLE_EQ(obs::roofline_gflops(peak, 20.0), 100.0);  // compute-bound
  EXPECT_DOUBLE_EQ(obs::roofline_gflops(peak, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(obs::roofline_gflops(obs::MachinePeak{}, 5.0), 0.0);
}

}  // namespace
}  // namespace fms
