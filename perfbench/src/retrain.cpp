// The retrain_eval workload (P3/P4 on a single worker) and the
// retrain-side probe.
//
// An episode takes a genotype drawn from the workload seed, builds a
// DiscreteNet at eval scale, trains it with one fms::centralized_train
// call (the timed round), then runs fms::evaluate. The run adds episodes
// until its time is up; every episode must reproduce the same parameter
// digest.
//
// In a traced episode the centralized_train call is span retrain.train;
// StepReplay then re-issues that call's SGD steps and evaluations on a
// benchmark-owned replica, one span per layer call, so the live model is
// never touched by the tracing.
#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "perfbench/src/bench.h"
#include "src/core/checkpoint.h"
#include "src/core/retrain.h"
#include "src/data/synth.h"
#include "src/nas/discrete_net.h"
#include "src/nn/optim.h"
#include "src/obs/profile.h"
#include "src/tensor/ops.h"

namespace perfbench {
namespace {

constexpr int kBatch = 32;
constexpr int kEpochs = 1;  // per centralized_train call
constexpr int kNodes = 2;   // the search scale's cell size
constexpr int kRecoverReps = 5;
// Minimum centralized_train calls of a plain run.
constexpr std::size_t kMinCalls = 3;

struct RetrainEpisode {
  explicit RetrainEpisode(fms::TrainTest d) : data(std::move(d)) {}
  RetrainEpisode(const RetrainEpisode&) = delete;
  RetrainEpisode& operator=(const RetrainEpisode&) = delete;

  fms::TrainTest data;
  fms::Genotype genotype;
  fms::SupernetConfig net_cfg;
  fms::Rng rng{0};  // init, then batch order and augmentation
  std::unique_ptr<fms::DiscreteNet> net;
};

// Eval scale: 4 cells with C = 8 on the search scale's 8x8 images.
fms::SupernetConfig eval_config() {
  fms::SupernetConfig cfg;
  cfg.num_cells = 4;
  cfg.num_nodes = kNodes;
  cfg.stem_channels = 8;
  cfg.image_size = 8;
  return cfg;
}

// A genotype drawn from the seed: each cell's four edges carry a random
// arrangement of a fixed op mix (all seven non-zero ops across the two
// cells, plus a second sep_conv_3x3), wired to random distinct inputs.
// The fixed mix keeps the retraining cost the same for every seed.
fms::Genotype sample_genotype(std::uint64_t seed) {
  using fms::OpType;
  fms::Rng rng(seed);
  fms::Genotype g;
  g.nodes = kNodes;
  auto fill = [&](std::vector<OpType> ops,
                  std::vector<fms::GenotypeEdge>& out) {
    rng.shuffle(ops);
    std::size_t next = 0;
    for (int node = 0; node < kNodes; ++node) {
      const int a = rng.randint(0, node + 1);
      int b = rng.randint(0, node);
      if (b >= a) ++b;  // distinct from a, uniform over the rest
      for (const int input : {std::min(a, b), std::max(a, b)}) {
        out.push_back({input, ops[next++]});
      }
    }
  };
  fill({OpType::kSepConv3, OpType::kSepConv5, OpType::kDilConv3,
        OpType::kMaxPool3},
       g.normal);
  fill({OpType::kDilConv5, OpType::kAvgPool3, OpType::kIdentity,
        OpType::kSepConv3},
       g.reduce);
  return g;
}

// Data synthesis, genotype sampling and model construction: the timed
// set-up.
std::unique_ptr<RetrainEpisode> setup(const Seeds& seeds) {
  fms::Rng data_rng(seeds.data);
  fms::SynthSpec synth;
  synth.train_size = 1200;
  synth.test_size = 300;
  synth.image_size = 8;
  auto ep =
      std::make_unique<RetrainEpisode>(fms::make_synth_c10(synth, data_rng));
  ep->genotype = sample_genotype(seeds.genotype);
  ep->net_cfg = eval_config();
  ep->rng = fms::Rng(seeds.retrain);
  ep->net = std::make_unique<fms::DiscreteNet>(ep->genotype, ep->net_cfg,
                                               ep->rng);
  return ep;
}

// Centralized P3 hyperparameters (paper Table I).
fms::SGD::Options sgd_options() {
  const fms::RetrainConfig rc;
  return {rc.lr_centralized, rc.momentum_centralized,
          rc.weight_decay_centralized, rc.clip_centralized};
}

int steps_per_epoch(const fms::Dataset& train) {
  return train.size() / kBatch;
}

// A benchmark-owned replica of an episode's model that re-issues the
// layer calls of centralized_train (batch, forward, loss, backward, SGD
// step) and of evaluate, one span each.
class StepReplay {
 public:
  StepReplay(const RetrainEpisode& ep, std::uint64_t seed)
      : data_(ep.data), rng_(seed), sgd_(sgd_options()) {
    net_ = std::make_unique<fms::DiscreteNet>(ep.genotype, ep.net_cfg, rng_);
    order_.resize(static_cast<std::size_t>(data_.train.size()));
    std::iota(order_.begin(), order_.end(), 0);
  }

  // Replays `steps` SGD steps in epoch order. Returns false when a loss is
  // not finite.
  bool train(int steps, int trace, int cause, Tracer& tr) {
    const int per_epoch = steps_per_epoch(data_.train);
    bool finite = true;
    for (int s = 0; s < steps; ++s) {
      if (s % per_epoch == 0) rng_.shuffle(order_);
      const std::span<const int> idx(
          order_.data() + (s % per_epoch) * kBatch, kBatch);
      finite = finite && step(idx, trace, cause, tr);
    }
    return finite;
  }

  double evaluate(int trace, int cause, Tracer& tr) {
    double acc = 0.0;
    tr.measure("nn.eval", trace, cause, true,
               [&] { acc = fms::evaluate(*net_, data_.test, kBatch); });
    return acc;
  }

 private:
  bool step(std::span<const int> idx, int trace, int cause, Tracer& tr) {
    fms::Dataset::Batch batch;
    tr.measure("data.next_batch", trace, cause, true, [&] {
      batch = data_.train.make_batch(idx, &augment_, &rng_);
    });
    net_->zero_grad();
    fms::Tensor logits;
    tr.measure("nn.retrain_fwd", trace, cause, true,
               [&] { logits = net_->forward(batch.x, /*train=*/true); });
    fms::CrossEntropyResult ce;
    tr.measure("tensor.cross_entropy", trace, cause, true,
               [&] { ce = fms::cross_entropy(logits, batch.y); });
    tr.measure("nn.retrain_bwd", trace, cause, true,
               [&] { net_->backward(ce.grad_logits); });
    tr.measure("nn.sgd_step", trace, cause, true,
               [&] { sgd_.step(net_->params()); });
    return std::isfinite(ce.loss);
  }

  const fms::TrainTest& data_;
  const fms::AugmentConfig augment_;
  fms::Rng rng_;
  fms::SGD sgd_;
  std::unique_ptr<fms::DiscreteNet> net_;
  std::vector<int> order_;
};

std::string param_digest(fms::DiscreteNet& net) {
  Digest digest;
  for (const fms::Param* p : net.params()) {
    digest.add(p->value.vec().data(), p->value.vec().size() * sizeof(float));
  }
  return digest.hex();
}

struct EpisodeResult {
  double setup_s = 0.0;
  double train_s = 0.0;  // wall time of the centralized_train call
  double cpu_s = 0.0;    // process CPU time of that call
  double samples = 0.0;
  double final_reward = 0.0;  // last epoch's mean training accuracy
  double test_accuracy = 0.0;
  std::vector<double> recover_s;
  std::string digest;
};

EpisodeResult run_episode(const Options& opt, Tracer* tr, int* trace_id,
                          Checker& checks) {
  const Seeds seeds = derive_seeds(opt.seed);
  const ScratchDir dir(opt.workdir);
  EpisodeResult out;
  fms::Stopwatch setup_clock;
  std::unique_ptr<RetrainEpisode> ep = setup(seeds);
  out.setup_s = setup_clock.elapsed_seconds();
  checks.op("retrain genotype", genotype_problems(ep->genotype, kNodes));
  const std::string initial = param_digest(*ep->net);
  const std::string genotype_path = dir.file("genotype.bin");
  fms::write_genotype_file(genotype_path, ep->genotype);

  const fms::AugmentConfig augment;
  const double cpu0 = cpu_seconds();
  fms::Stopwatch train_clock;
  const int root =
      tr != nullptr ? tr->open("retrain.train", *trace_id, -1, false) : -1;
  const fms::RetrainResult result = fms::centralized_train(
      *ep->net, ep->data.train, ep->data.test, kEpochs, kBatch, sgd_options(),
      &augment, ep->rng);
  out.train_s = tr != nullptr ? tr->close(root) : train_clock.elapsed_seconds();
  out.cpu_s = cpu_seconds() - cpu0;
  out.samples = static_cast<double>(kEpochs) *
                steps_per_epoch(ep->data.train) * kBatch;
  out.final_reward = result.curve.back().train_acc;
  bool finite = static_cast<int>(result.curve.size()) == kEpochs;
  for (const fms::TrainPoint& pt : result.curve) {
    finite = finite && in_unit(pt.train_acc) && in_unit(pt.val_acc);
  }
  checks.op("retrain P3", finite, "epoch accuracy outside [0,1]");

  if (tr != nullptr) {
    StepReplay replay(*ep, seeds.bench);
    const int trace = (*trace_id)++;
    bool ok = replay.train(kEpochs * steps_per_epoch(ep->data.train), trace,
                           root, *tr);
    // centralized_train evaluates after each epoch and once at the end.
    for (int e = 0; e <= kEpochs; ++e) {
      ok = ok && in_unit(replay.evaluate(trace, root, *tr));
    }
    checks.op("retrain replay", ok,
              "loss not finite or accuracy outside [0,1]");
    tr->sample("retrain.train_self_ms",
               1e3 * (out.train_s - tr->attributed_seconds(trace, root)));
    // The P4 evaluation reads the live model, so it is timed in place.
    tr->measure("nn.eval", -1, -1, false, [&] {
      out.test_accuracy = fms::evaluate(*ep->net, ep->data.test, kBatch);
    });
  } else {
    out.test_accuracy = fms::evaluate(*ep->net, ep->data.test, kBatch);
  }
  checks.op("retrain P4 accuracy",
            in_unit(out.test_accuracy) &&
                out.test_accuracy == result.final_test_accuracy,
            "accuracy outside [0,1] or not the one P3 reported");
  out.digest = param_digest(*ep->net);

  // Recovery: P3 restarts from the durable genotype file. The rebuilt
  // model must carry the same architecture and the same initial weights.
  bool same = true;
  for (int rep = 0; rep < kRecoverReps; ++rep) {
    fms::Stopwatch clock;
    const fms::Genotype g = fms::read_genotype_file(genotype_path);
    fms::Rng init(seeds.retrain);
    fms::DiscreteNet fresh(g, ep->net_cfg, init);
    out.recover_s.push_back(clock.elapsed_seconds());
    same = same && g.to_string() == ep->genotype.to_string() &&
           param_digest(fresh) == initial;
  }
  checks.op("retrain recovery", same, "rebuilt model differs from set-up");
  return out;
}

}  // namespace

Result run_retrain_eval(const Options& opt) {
  Result res;
  const fms::Stopwatch run_clock;
  Tracer tr(run_clock);
  Tracer probes(run_clock);
  int trace_id = 0;
  std::vector<EpisodeResult> episodes;
  std::vector<double> plain_train_s, traced_train_s;
  double last_episode_s = 0.0;
  while (want_episode(opt, run_clock.elapsed_seconds(), episodes.size(),
                      plain_train_s.size(), kMinCalls, last_episode_s)) {
    const double episode_start = run_clock.elapsed_seconds();
    const bool traced = opt.trace && episodes.size() % 2 == 1;
    EpisodeResult e =
        run_episode(opt, traced ? &tr : nullptr, &trace_id, res.checks);
    (traced ? traced_train_s : plain_train_s).push_back(e.train_s);
    episodes.push_back(std::move(e));
    last_episode_s = run_clock.elapsed_seconds() - episode_start;
  }
  std::vector<std::string> digests;
  for (const EpisodeResult& e : episodes) digests.push_back(e.digest);
  check_digests(opt, digests, "params_fnv1a64", res);

  std::vector<double> setup_s, recover_s;
  for (std::size_t i = episodes.size(); i < kMinSetups; ++i) {
    fms::Stopwatch clock;
    setup(derive_seeds(opt.seed));
    setup_s.push_back(clock.elapsed_seconds());
  }
  double samples = 0.0, train_s = 0.0, cpu_s = 0.0;
  for (const EpisodeResult& e : episodes) {
    setup_s.push_back(e.setup_s);
    recover_s.insert(recover_s.end(), e.recover_s.begin(), e.recover_s.end());
    samples += e.samples;
    train_s += e.train_s;
    cpu_s += e.cpu_s;
  }

  if (!opt.trace) {
    const char* round = "one centralized_train call";
    res.metrics = {
        {"setup_s", median(setup_s), "s", ""},
        {"round_ms_p50", 1e3 * median(plain_train_s), "ms", round},
        {"round_ms_p90", 1e3 * quantile(plain_train_s, 0.9), "ms", round},
        {"samples_per_s", samples / train_s, "1/s", ""},
        {"recover_s", median(recover_s), "s", "rebuild from genotype file"},
        {"peak_rss_mb",
         static_cast<double>(fms::obs::peak_rss_bytes()) / 1048576.0, "MB",
         ""},
    };
    res.report = {
        {"final_reward", episodes[0].final_reward, "ratio",
         "last-epoch train accuracy, exact per seed"},
        {"test_accuracy", episodes[0].test_accuracy, "ratio",
         "P4, exact per seed"},
        {"episodes", static_cast<double>(episodes.size()), "count", ""},
    };
    return res;
  }

  tr.sample("core.cpu_util", cpu_s / train_s);
  tr.sample("core.tracing_overhead_pct",
            100.0 * (median(traced_train_s) / median(plain_train_s) - 1.0));
  probe_candidate_ops(derive_seeds(opt.seed).bench, kBatch, tr);
  probe_search_layers(opt, probes, res.checks);
  res.metrics = layer_metrics(tr, probes, res.checks);
  res.report = {{"retrain.train_self_ms",
                 median(tr.samples("retrain.train_self_ms")), "ms",
                 "retrain.train minus its replayed layer spans"}};
  tr.write_jsonl(opt.workdir + "/spans-retrain_eval-" +
                 std::to_string(opt.seed) + ".jsonl");
  return res;
}

void probe_retrain_layers(const Options& opt, int steps, Tracer& tr,
                          Checker& checks) {
  const std::unique_ptr<RetrainEpisode> ep = setup(derive_seeds(opt.seed));
  StepReplay replay(*ep, derive_seeds(opt.seed).bench);
  const bool ok = replay.train(steps, -1, -1, tr) &&
                  in_unit(replay.evaluate(-1, -1, tr));
  checks.op("retrain probe", ok, "loss not finite or accuracy outside [0,1]");
}

}  // namespace perfbench
