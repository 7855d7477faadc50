// The per-layer metric table and the candidate-op probe.
//
// Layers are the src/ modules. Each metric names the span (or sample) the
// traced run records around that module's public call, and the statistic
// and unit it is reported in.
#include <string>
#include <vector>

#include "perfbench/src/bench.h"
#include "src/nas/ops.h"

namespace perfbench {
namespace {

enum class Stat {
  kSpanMedian,    // median duration of the spans named `name` minus its
                  // unit suffix, in the metric's unit
  kSampleMedian,  // median of the samples named `name`
  kSampleMean,    // mean of the samples named `name`
};

struct LayerMetric {
  std::string name;
  std::string unit;
  Stat stat;
};

// The names and units must match the per_layer list of BENCHMARK.json,
// the source of truth; run.py fails a run whose names differ.
std::vector<LayerMetric> layer_table() {
  const Stat span = Stat::kSpanMedian;
  const Stat med = Stat::kSampleMedian;
  const Stat avg = Stat::kSampleMean;
  std::vector<LayerMetric> t = {
      {"core.round_ms", "ms", span},
      {"core.round_self_ms", "ms", med},
      {"core.cpu_util", "ratio", avg},
      {"core.tracing_overhead_pct", "pct", avg},
      {"core.checkpoint_ms", "ms", span},
      {"core.checkpoint_kb", "KB", med},
      {"core.checkpoint_read_ms", "ms", span},
      {"core.journal_append_us", "us", span},
      {"core.replay_ms_per_round", "ms", med},
      {"fed.train_step_ms", "ms", span},
      {"fed.train_steps_per_round", "count", avg},
      {"fed.codec_us", "us", span},
      {"fed.applied_ratio", "ratio", avg},
      {"data.next_batch_us", "us", span},
      {"nas.prune_us", "us", span},
      {"nas.densify_us", "us", span},
      {"nas.submodel_kb", "KB", avg},
      {"nn.fwd_ms", "ms", span},
      {"nn.bwd_ms", "ms", span},
  };
  for (int op = 1; op < fms::kNumOps; ++op) {
    const std::string base =
        std::string("nn.op.") + fms::op_name(static_cast<fms::OpType>(op));
    t.push_back({base + ".fwd_us", "us", span});
    t.push_back({base + ".bwd_us", "us", span});
  }
  const std::vector<LayerMetric> rest = {
      {"nn.retrain_fwd_ms", "ms", span},
      {"nn.retrain_bwd_ms", "ms", span},
      {"nn.sgd_step_us", "us", span},
      {"nn.eval_ms", "ms", span},
      {"tensor.cross_entropy_us", "us", span},
      {"rl.sample_us", "us", span},
      {"rl.update_us", "us", span},
      {"net.schedule_us", "us", span},
      {"net.sim_latency_s", "s", avg},
      {"net.sim_commit_s", "s", avg},
      {"net.wire_kb_per_round", "KB", avg},
      {"dc.compensate_us", "us", span},
      {"dc.stale_ratio", "ratio", avg},
      {"agg.aggregate_ms", "ms", span},
      {"agg.rejected_ratio", "ratio", avg},
      {"sim.live_ratio", "ratio", avg},
      {"fault.partial_quorum_ratio", "ratio", avg},
  };
  t.insert(t.end(), rest.begin(), rest.end());
  return t;
}

// The metric's values in `tr`; empty when `tr` never recorded it.
std::vector<double> values_of(const Tracer& tr, const LayerMetric& m) {
  if (m.stat != Stat::kSpanMedian) return tr.samples(m.name);
  const std::string span = m.name.substr(0, m.name.size() - 3);  // "_ms"
  const double scale = m.unit == "ms" ? 1e3 : 1e6;
  std::vector<double> v = tr.durations(span);
  for (double& x : v) x *= scale;
  return v;
}

}  // namespace

std::vector<Metric> layer_metrics(const Tracer& tr, const Tracer& probes,
                                  Checker& checks) {
  std::vector<Metric> out;
  for (const LayerMetric& m : layer_table()) {
    std::vector<double> v = values_of(tr, m);
    std::string note;
    if (v.empty()) {
      v = values_of(probes, m);
      note = "probe";
    }
    checks.op("per-layer " + m.name, !v.empty(), "not measured");
    const double value = m.stat == Stat::kSampleMean ? mean(v) : median(v);
    out.push_back({m.name, value, m.unit, note});
  }
  return out;
}

void probe_candidate_ops(std::uint64_t seed, int batch, Tracer& tr) {
  // Search-scale C, stride 1, on the first cells' 8x8 maps.
  constexpr int kChannels = 6;
  constexpr int kSize = 8;
  constexpr int kReps = 5;
  fms::Rng rng(seed);
  const fms::Tensor x =
      fms::Tensor::randn({batch, kChannels, kSize, kSize}, rng);
  for (int op = 1; op < fms::kNumOps; ++op) {
    const auto type = static_cast<fms::OpType>(op);
    const std::string base = std::string("nn.op.") + fms::op_name(type);
    std::unique_ptr<fms::Module> m =
        fms::make_candidate_op(type, kChannels, 1, rng);
    for (int rep = 0; rep < kReps; ++rep) {
      fms::Tensor y;
      tr.measure(base + ".fwd", -1, -1, false,
              [&] { y = m->forward(x, /*train=*/true); });
      const fms::Tensor grad = fms::Tensor::full(y.shape(), 1.0F);
      tr.measure(base + ".bwd", -1, -1, false, [&] { m->backward(grad); });
    }
  }
}

}  // namespace perfbench
