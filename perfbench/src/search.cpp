// The two search workloads, their per-layer replay, and the search-side
// probes.
//
// An episode builds the inputs of the workload seed (timed as set-up),
// then drives a fixed schedule of warm-up and search rounds through
// FederatedSearch::run_warmup(1) / run_search(1), timing each call. The
// run adds episodes until its time is up; every episode must reproduce
// the same trajectory digest. Between its rounds an episode times the
// recovery of fresh searches from what the previous episode left on disk.
//
// In a traced episode each round is timed as span core.round, then
// LayerReplay re-issues that round's layer calls on benchmark-owned
// participants, replicas and journal, sized by the round's own
// RoundRecord. The replay only reads the live supernet and policy, so it
// never changes the search, which the digests prove.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/bench.h"
#include "src/agg/aggregator.h"
#include "src/core/checkpoint.h"
#include "src/core/journal.h"
#include "src/core/search.h"
#include "src/data/synth.h"
#include "src/dc/compensation.h"
#include "src/fault/fault.h"
#include "src/fed/messages.h"
#include "src/fed/participant.h"
#include "src/net/trace.h"
#include "src/net/transmission.h"
#include "src/sim/churn.h"
#include "src/obs/profile.h"
#include "src/tensor/ops.h"

namespace perfbench {
namespace {

constexpr int kParticipants = 10;
constexpr int kBatch = 16;
// Recoveries a run times at least; search_iid restores in milliseconds,
// search_stale_faulty replays rounds.
constexpr std::size_t kMinRecoveries = 4;
// Minimum timed rounds of a plain run, so the p90 has ten beyond it.
constexpr std::size_t kMinTimed = 100;

struct SearchSpec {
  const char* name;
  bool stale_faulty;
  int warmup;            // warm-up rounds per episode
  int search;            // search rounds per episode
  int checkpoint_every;  // auto-checkpoint cadence; 0: no durability
  int recover_every;     // rounds between timed recoveries; 0: none
};

// The CLI's search scale. The stale/faulty cadence (12) does not divide
// the 35 rounds of an episode, so recovery replays the 11 rounds after the
// last checkpoint, enough that the sub-models those rounds sample average
// out. Its 10 warm-up rounds (all clients) balance the faulted search
// rounds' small cohorts, so the median round sits among the 8-client
// rounds rather than at the edge between cohort sizes. A recovery every 9
// rounds gives 3 per episode, spread over it.
constexpr SearchSpec kIid{"search_iid", false, 5, 20, 0, 5};
constexpr SearchSpec kStaleFaulty{"search_stale_faulty", true, 10, 25, 12, 9};

// Inputs and live search of one episode.
struct Episode {
  explicit Episode(fms::TrainTest d) : data(std::move(d)) {}
  Episode(const Episode&) = delete;
  Episode& operator=(const Episode&) = delete;

  fms::TrainTest data;  // outlives `search`: its shards point into it
  std::vector<std::vector<int>> partition;
  fms::SearchConfig cfg;
  fms::SearchOptions opts;
  std::unique_ptr<fms::FederatedSearch> search;
};

fms::SearchConfig search_config(const SearchSpec& spec, const Seeds& seeds) {
  fms::SearchConfig cfg;
  cfg.supernet.num_cells = 3;
  cfg.supernet.num_nodes = 2;
  cfg.supernet.stem_channels = 6;
  cfg.supernet.image_size = 8;
  cfg.schedule.batch_size = kBatch;
  cfg.schedule.num_participants = kParticipants;
  cfg.seed = seeds.search;
  // The operator's hard case runs with the health monitor and metrics
  // registry on, as the CLI does; the clean case leaves telemetry off.
  cfg.telemetry.enabled = spec.stale_faulty;
  cfg.telemetry.health = spec.stale_faulty;
  return cfg;
}

// The hard case's fault and churn schedule. Which clients crash, attack or
// leave is drawn from the workload seed, but how many is fixed: plan
// seeds are taken from the seed's stream until exactly kCrashed clients
// crash at kCrashRound, kFlippers other clients flip signs, and kBurst
// further clients leave in the burst. Every seed then puts the same load
// on the round loop, so run-to-run spread measures the program, not the
// draw.
// The burst (rounds 12-17) walks the degradation ladder down to mode 3;
// with quorum 0.5 the 8 surviving clients let it climb back to normal by
// round 27, so recovery replays (rounds 24-34) the last rungs of the climb.
constexpr int kCrashed = 2;
constexpr int kCrashRound = 11;
constexpr int kFlippers = 2;
constexpr int kBurst = 6;
constexpr int kBurstRound = 12;
constexpr int kBurstAway = 6;

void hard_case_plans(const Seeds& seeds, fms::FaultPlan& faults,
                     fms::ChurnPlan& churn) {
  faults.crash_fraction = static_cast<double>(kCrashed) / kParticipants;
  faults.crash_round = kCrashRound;
  faults.crash_spread = 0;
  faults.sign_flip_fraction = static_cast<double>(kFlippers) / kParticipants;
  churn.burst_fraction = static_cast<double>(kBurst) / kParticipants;
  churn.burst_round = kBurstRound;
  churn.burst_away = kBurstAway;
  fms::Rng fault_stream(seeds.fault);
  std::vector<char> taken;
  do {
    faults.seed = fault_stream.next_u64();
    const fms::FaultInjector inj(faults, kParticipants);
    taken.assign(kParticipants, 0);
    int crashed = 0, flippers = 0;
    for (int i = 0; i < kParticipants; ++i) {
      const bool crash = inj.is_crashed(i, kCrashRound);
      const bool flip = inj.byzantine_kind(i, 0).has_value();
      crashed += crash ? 1 : 0;
      flippers += flip && !crash ? 1 : 0;
      taken[static_cast<std::size_t>(i)] = crash || flip ? 1 : 0;
    }
    if (crashed == kCrashed && flippers == kFlippers) break;
  } while (true);
  fms::Rng churn_stream(seeds.churn);
  do {
    churn.seed = churn_stream.next_u64();
    const fms::ChurnModel model(churn, kParticipants);
    int away = 0;
    bool disjoint = true;
    for (int i = 0; i < kParticipants; ++i) {
      if (model.is_live(i, kBurstRound)) continue;
      ++away;
      disjoint = disjoint && taken[static_cast<std::size_t>(i)] == 0;
    }
    if (away == kBurst && disjoint) break;
  } while (true);
}

fms::SearchOptions search_options(const SearchSpec& spec, const Seeds& seeds,
                                  const ScratchDir& dir) {
  fms::SearchOptions opts;
  if (!spec.stale_faulty) return opts;  // hard sync, mean, no faults
  opts.staleness = fms::StalenessDistribution::severe();
  opts.stale_policy = fms::StalePolicy::kCompensate;
  opts.aggregator.kind = fms::agg::AggregatorKind::kCoordinateMedian;
  hard_case_plans(seeds, opts.fault_plan, opts.churn_plan);
  opts.quorum = 0.5;
  opts.adaptive_timeout.enabled = true;
  opts.adaptive_timeout.window = 40;
  opts.degrade.max_mode = 3;
  opts.degrade.trip_rounds = 2;
  opts.degrade.recover_rounds = 3;
  opts.checkpoint_every = spec.checkpoint_every;
  opts.checkpoint_path = dir.file("checkpoint.bin");
  return opts;
}

// Data synthesis, partition, and search construction: the timed set-up.
std::unique_ptr<Episode> setup(const SearchSpec& spec, const Seeds& seeds,
                               const ScratchDir& dir) {
  fms::Rng data_rng(seeds.data);
  fms::SynthSpec synth;
  synth.train_size = 1200;
  synth.test_size = 300;
  synth.image_size = 8;
  auto ep = std::make_unique<Episode>(fms::make_synth_c10(synth, data_rng));
  fms::Rng part_rng(seeds.partition);
  ep->partition =
      spec.stale_faulty
          ? fms::dirichlet_partition(ep->data.train.labels(), 10,
                                     kParticipants, 0.5, part_rng)
          : fms::iid_partition(ep->data.train.size(), kParticipants, part_rng);
  ep->cfg = search_config(spec, seeds);
  ep->opts = search_options(spec, seeds, dir);
  ep->search = std::make_unique<fms::FederatedSearch>(
      ep->cfg, ep->data.train, ep->partition);
  if (spec.checkpoint_every > 0) {
    ep->search->enable_journal(dir.file("journal.bin"), ep->opts.fault_plan);
  }
  return ep;
}

std::vector<std::string> record_problems(const fms::RoundRecord& r) {
  std::vector<std::string> p;
  if (!in_unit(r.mean_reward)) p.push_back("mean_reward outside [0,1]");
  if (!in_unit(r.moving_avg)) p.push_back("moving_avg outside [0,1]");
  if (!in_unit(r.baseline)) p.push_back("baseline outside [0,1]");
  if (!std::isfinite(r.alpha_entropy) || r.alpha_entropy < 0.0) {
    p.push_back("alpha_entropy not finite");
  }
  if (r.cohort > r.live || r.live > kParticipants) p.push_back("cohort > live");
  if (!std::isfinite(r.commit_latency_s) || r.commit_latency_s < 0.0) {
    p.push_back("commit latency not finite");
  }
  return p;
}

}  // namespace

std::vector<std::string> genotype_problems(const fms::Genotype& g, int nodes) {
  std::vector<std::string> p;
  if (g.nodes != nodes) p.push_back("wrong node count");
  for (const auto* edges : {&g.normal, &g.reduce}) {
    if (static_cast<int>(edges->size()) != 2 * nodes) {
      p.push_back("wrong edge count");
      continue;
    }
    for (int node = 0; node < nodes; ++node) {
      const auto& a = (*edges)[static_cast<std::size_t>(2 * node)];
      const auto& b = (*edges)[static_cast<std::size_t>(2 * node + 1)];
      for (const auto& e : {a, b}) {
        if (e.input < 0 || e.input >= node + 2) p.push_back("bad edge input");
        const int op = static_cast<int>(e.op);
        if (op <= 0 || op >= fms::kNumOps) p.push_back("bad edge op");
      }
      if (a.input == b.input) p.push_back("duplicate node input");
    }
  }
  return p;
}

namespace {

// One-hot mask of each edge's most probable op.
fms::Mask argmax_mask(const fms::ArchPolicy& policy) {
  auto pick = [](const fms::AlphaTable& table) {
    std::vector<int> out;
    for (const auto& row : table) {
      out.push_back(static_cast<int>(
          std::max_element(row.begin(), row.end()) - row.begin()));
    }
    return out;
  };
  return {pick(policy.alpha().normal), pick(policy.alpha().reduce)};
}

// Test accuracy of the most probable sub-model with the supernet's shared
// weights, run on a replica with batch statistics as participants train.
double weight_sharing_accuracy(fms::FederatedSearch& search,
                               const fms::SupernetConfig& cfg,
                               const fms::Dataset& test, std::uint64_t seed) {
  fms::Rng rng(seed);
  fms::Supernet replica(cfg, rng);
  replica.set_flat_values(search.supernet().flat_values());
  const fms::Mask mask = argmax_mask(search.policy());
  constexpr int kEvalBatch = 32;
  double correct = 0.0;
  for (int start = 0; start < test.size(); start += kEvalBatch) {
    const int end = std::min(test.size(), start + kEvalBatch);
    std::vector<int> idx;
    for (int i = start; i < end; ++i) idx.push_back(i);
    fms::Dataset::Batch batch = test.make_batch(idx, nullptr, nullptr);
    const fms::Tensor logits = replica.forward(batch.x, mask, /*train=*/true);
    correct += static_cast<double>(
                   fms::cross_entropy(logits, batch.y).accuracy) *
               (end - start);
  }
  return correct / test.size();
}

// Re-issues one committed round's layer calls on benchmark-owned state,
// sized by the round's RoundRecord.
class LayerReplay {
 public:
  LayerReplay(const Episode& ep, const SearchSpec& spec, std::uint64_t seed,
              const ScratchDir& dir)
      : spec_(spec),
        opts_(ep.opts),
        augment_(ep.cfg.augment),
        rng_(seed),
        participant_(0, fms::Shard(&ep.data.train, ep.partition[0]),
                     ep.cfg.supernet, ep.cfg.augment, kBatch, rng_.fork()),
        shard_(&ep.data.train, ep.partition[0]),
        journal_(dir.file("replay_journal.bin"), fms::FaultPlan{}),
        checkpoint_path_(dir.file("replay_checkpoint.bin")) {
    fms::Rng init = rng_.fork();
    replica_ = std::make_unique<fms::Supernet>(ep.cfg.supernet, init);
    for (int k = 0; k < kParticipants; ++k) {
      traces_.emplace_back(
          static_cast<fms::NetEnvironment>(k % fms::kNumNetEnvironments),
          rng_.fork());
    }
    prev_theta_ = ep.search->supernet().flat_values();
    prev_alpha_ = ep.search->policy().alpha();
    cursor_ = rng_.save_state();
  }

  // `ckpt_round`: the live round wrote an auto-checkpoint.
  void replay(fms::FederatedSearch& live, const fms::RoundRecord& rec,
              bool search_phase, bool ckpt_round, int trace, int cause,
              Tracer& tr, Checker& checks) {
    fms::Supernet& net = live.supernet();
    const fms::ArchPolicy& policy = live.policy();
    // Every layer is timed at least once per round; calls beyond what the
    // round itself did are probes and do not count against its self time.
    // A round samples and schedules a sub-model for every client, then
    // dispatches to the cohort members that are not offline.
    const int dispatched = rec.cohort - rec.offline;

    std::vector<fms::Mask> masks;
    tr.measure("rl.sample", trace, cause, true, [&] {
      for (int i = 0; i < kParticipants; ++i) {
        masks.push_back(policy.sample(rng_));
      }
    });

    std::vector<std::size_t> bytes;
    std::vector<double> bandwidth;
    for (int i = 0; i < kParticipants; ++i) {
      const auto ui = static_cast<std::size_t>(i);
      bytes.push_back(net.submodel_bytes(masks[ui]));
      bandwidth.push_back(traces_[ui].next_bps());
      tr.sample("nas.submodel_kb", static_cast<double>(bytes.back()) / 1024.0);
    }
    tr.measure("net.schedule", trace, cause, true, [&] {
      const std::vector<int> assignment = fms::assign_models(
          bytes, bandwidth, fms::AssignStrategy::kAdaptive, rng_);
      sink_ += fms::transmission_latency(bytes, bandwidth, assignment, false)
                   .max_seconds;
    });

    std::vector<fms::UpdateMsg> updates;
    std::vector<std::vector<std::size_t>> update_ids;
    std::vector<float> first_values;
    for (int j = 0; j < std::max(dispatched, 1); ++j) {
      const bool did = j < dispatched;
      fms::SubmodelMsg msg;
      msg.round = rec.round;
      msg.mask = masks[static_cast<std::size_t>(j % kParticipants)];
      std::vector<std::size_t> ids;
      tr.measure("nas.prune", trace, cause, did, [&] {
        ids = net.masked_param_ids(msg.mask);
        msg.values = net.gather_values(ids);
      });
      fms::UpdateMsg upd;
      tr.measure("fed.train_step", trace, cause, did,
                 [&] { upd = participant_.train_step(msg); });
      checks.op("replayed train_step r" + std::to_string(rec.round),
                in_unit(upd.reward) && std::isfinite(upd.loss) &&
                    upd.loss >= 0.0F,
                "reward outside [0,1] or loss not finite");
      // Messages travel in-process; the codec round trip is what a wire
      // deployment would add, so it never counts against the round.
      tr.measure("fed.codec", trace, cause, false, [&] {
        const fms::SubmodelMsg down =
            fms::SubmodelMsg::deserialize(msg.serialize());
        const fms::UpdateMsg up = fms::UpdateMsg::deserialize(upd.serialize());
        sink_ += static_cast<double>(down.values.size() + up.grads.size());
      });
      if (j == 0) first_values = msg.values;
      update_ids.push_back(std::move(ids));
      updates.push_back(std::move(upd));
    }

    decompose_train_step(masks[0], update_ids[0], first_values, trace, cause,
                         tr);

    const int arrived = rec.arrived;
    const auto nth = [&](int i) {
      return static_cast<std::size_t>(i) % updates.size();
    };
    for (int c = 0; c < std::max(rec.compensated, 1); ++c) {
      const fms::UpdateMsg& u = updates[nth(c)];
      const std::vector<std::size_t>& ids = update_ids[nth(c)];
      const std::vector<float> fresh = net.gather_values(ids);
      const std::vector<float> stale = net.gather_from_flat(prev_theta_, ids);
      const fms::AlphaPair stale_dlogp =
          fms::ArchPolicy::log_prob_grad_at(prev_alpha_, u.mask);
      const bool did = c < rec.compensated;
      tr.measure("dc.compensate", trace, cause, did, [&] {
        const std::vector<float> g = fms::compensate_weight_gradient(
            u.grads, fresh, stale, opts_.dc_lambda);
        const fms::AlphaPair a = fms::compensate_alpha_gradient(
            stale_dlogp, policy.alpha(), prev_alpha_, opts_.dc_lambda);
        sink_ += static_cast<double>(g.size()) + a.l2_norm();
      });
    }

    // The mean estimator scatters masked gradients directly; only the
    // robust estimators densify and call agg::aggregate.
    const bool robust =
        opts_.aggregator.kind != fms::agg::AggregatorKind::kMean;
    std::vector<std::vector<float>> dense;
    std::vector<std::vector<std::uint8_t>> presence;
    for (int a = 0; a < std::max(arrived, 1); ++a) {
      const std::vector<std::size_t>& ids = update_ids[nth(a)];
      const std::vector<float>& grads = updates[nth(a)].grads;
      tr.measure("nas.densify", trace, cause, robust && a < arrived, [&] {
        dense.push_back(replica_->dense_from_masked(ids, grads));
        presence.push_back(replica_->presence_from_masked(ids));
      });
    }
    tr.measure("agg.aggregate", trace, cause, robust && arrived > 0, [&] {
      sink_ += static_cast<double>(
          fms::agg::aggregate(opts_.aggregator, dense, presence).grad.size());
    });

    fms::ArchPolicy copy = policy;
    tr.measure("rl.update", trace, cause, arrived > 0, [&] {
      const int m = std::max(arrived, 1);
      double reward_sum = 0.0;
      for (int i = 0; i < m; ++i) reward_sum += updates[nth(i)].reward;
      const double b = copy.update_baseline(reward_sum / m);
      fms::AlphaPair grad = fms::AlphaPair::zeros(copy.num_edges());
      for (int i = 0; i < m; ++i) {
        const fms::UpdateMsg& u = updates[nth(i)];
        const auto advantage = static_cast<float>(u.reward - b);
        grad.add_scaled(copy.log_prob_grad(u.mask),
                        advantage / static_cast<float>(m));
      }
      copy.apply_gradient(grad);
    });

    fms::JournalFrame frame;
    frame.phase = search_phase ? 1 : 0;
    frame.round = rec.round;
    frame.record = rec.canonical();
    frame.rng_cursor = cursor_;
    frame.staleness_cursor = cursor_;
    tr.measure("core.journal_append", trace, cause,
               spec_.checkpoint_every > 0, [&] { journal_.append(frame); });

    // Checkpoint writes replay the live cadence; a workload without one is
    // probed every fifth round.
    if (ckpt_round || (spec_.checkpoint_every == 0 && rec.round % 5 == 0)) {
      tr.measure("core.checkpoint", trace, cause, ckpt_round, [&] {
        fms::write_checkpoint_file(checkpoint_path_, live.checkpoint());
      });
      tr.sample("core.checkpoint_kb",
                static_cast<double>(
                    std::filesystem::file_size(checkpoint_path_)) /
                    1024.0);
      tr.measure("core.checkpoint_read", trace, cause, false, [&] {
        sink_ += fms::read_checkpoint_file(checkpoint_path_).theta.size();
      });
    }

    tr.sample("fed.train_steps_per_round", dispatched);
    prev_theta_ = net.flat_values();
    prev_alpha_ = policy.alpha();
  }

 private:
  // One participant step split into its data, nn and tensor layers, on the
  // replica with the round's first mask.
  void decompose_train_step(const fms::Mask& mask,
                            const std::vector<std::size_t>& ids,
                            const std::vector<float>& values, int trace,
                            int cause, Tracer& tr) {
    replica_->scatter_values(ids, values);
    replica_->zero_grad();
    fms::Dataset::Batch batch;
    tr.measure("data.next_batch", trace, cause, false,
            [&] { batch = shard_.next_batch(kBatch, &augment_, rng_); });
    fms::Tensor logits;
    tr.measure("nn.fwd", trace, cause, false,
            [&] { logits = replica_->forward(batch.x, mask, /*train=*/true); });
    fms::CrossEntropyResult ce;
    tr.measure("tensor.cross_entropy", trace, cause, false,
            [&] { ce = fms::cross_entropy(logits, batch.y); });
    tr.measure("nn.bwd", trace, cause, false,
            [&] { replica_->backward(ce.grad_logits); });
  }

  const SearchSpec& spec_;
  const fms::SearchOptions& opts_;
  fms::AugmentConfig augment_;
  fms::Rng rng_;
  fms::SearchParticipant participant_;
  fms::Shard shard_;
  fms::RoundJournal journal_;
  std::string checkpoint_path_;
  std::unique_ptr<fms::Supernet> replica_;
  std::vector<fms::BandwidthTrace> traces_;
  std::vector<float> prev_theta_;
  fms::AlphaPair prev_alpha_;
  std::string cursor_;  // an RNG cursor of realistic size for frames
  double sink_ = 0.0;   // keeps replayed results observable
};

// Recovery of fresh searches from what a finished episode left behind:
// pristine copies of its durable files and the bytes of its final
// checkpoint. Every episode has the same inputs, so a later episode builds
// the fresh searches from its own and recovers them between its rounds;
// recoveries then sample the whole run as the rounds do, so one slow
// stretch of the machine cannot take them all. search_stale_faulty runs recover() (checkpoint load plus
// verified journal replay), each time from a fresh copy of the files,
// since recover() re-arms journaling; search_iid journals nothing, so it
// restores the final checkpoint with nothing to replay.
class Recoveries {
 public:
  Recoveries(const SearchSpec& spec, const std::string& workdir)
      : spec_(spec), workdir_(workdir), kept_(workdir) {}

  bool ready() const { return !live_bytes_.empty(); }

  // Keeps what the finished episode `ep` left in `dir`.
  void keep(const Episode& ep, const ScratchDir& dir) {
    live_bytes_ = ep.search->checkpoint().serialize();
    if (!journaled()) {
      fms::write_checkpoint_file(kept_.file(kFinal), ep.search->checkpoint());
      return;
    }
    for (const char* f : kDurableFiles) {
      std::filesystem::remove(kept_.file(f));
      if (std::filesystem::exists(dir.file(f))) {
        std::filesystem::copy_file(dir.file(f), kept_.file(f));
      }
    }
  }

  // Times one recovery of a fresh search built from `ep`'s inputs.
  void time_one(const Episode& ep, Checker& checks) {
    fms::FederatedSearch fresh(ep.cfg, ep.data.train, ep.partition);
    std::vector<std::string> p;
    if (journaled()) {
      const ScratchDir copy(workdir_);
      for (const char* f : kDurableFiles) {
        if (std::filesystem::exists(kept_.file(f))) {
          std::filesystem::copy_file(kept_.file(f), copy.file(f));
        }
      }
      fms::FederatedSearch::RecoverConfig rc;
      rc.checkpoint_path = copy.file("checkpoint.bin");
      rc.journal_path = copy.file("journal.bin");
      rc.warmup_rounds = spec_.warmup;
      rc.search = ep.opts;
      rc.search.checkpoint_path = rc.checkpoint_path;
      fms::Stopwatch clock;
      const fms::FederatedSearch::RecoveryReport rep = fresh.recover(rc);
      seconds.push_back(clock.elapsed_seconds());
      replayed_rounds = rep.replayed_rounds;
      if (!rep.checkpoint_loaded) p.push_back("no checkpoint loaded");
      if (rep.replayed_rounds !=
          (spec_.warmup + spec_.search) % spec_.checkpoint_every) {
        p.push_back("unexpected replay length");
      }
    } else {
      fms::Stopwatch clock;
      fresh.restore(fms::read_checkpoint_file(kept_.file(kFinal)));
      seconds.push_back(clock.elapsed_seconds());
    }
    if (fresh.checkpoint().serialize() != live_bytes_) {
      p.push_back("recovered checkpoint differs from the live search");
    }
    checks.op(std::string(spec_.name) + " recovery", p);
  }

  std::vector<double> seconds;  // one per timed recovery
  int replayed_rounds = 0;

 private:
  static constexpr const char* kFinal = "final_checkpoint.bin";
  static constexpr const char* kDurableFiles[] = {
      "checkpoint.bin", "checkpoint.bin.prev", "journal.bin",
      "journal.bin.prev"};
  bool journaled() const { return spec_.checkpoint_every > 0; }

  const SearchSpec& spec_;
  std::string workdir_;
  ScratchDir kept_;
  std::vector<std::uint8_t> live_bytes_;
};

struct EpisodeResult {
  std::vector<fms::RoundRecord> records;
  std::vector<double> round_s;
  double setup_s = 0.0;
  double cpu_s = 0.0;  // process CPU time over the round calls
  double final_reward = 0.0;
  double test_accuracy = 0.0;
  std::string digest;
};

// Runs one episode: set-up, the round schedule with recoveries from what
// the previous episode left between its rounds, and output checks; then
// keeps what this one leaves for the next. `recoveries` may be null.
EpisodeResult run_episode(const SearchSpec& spec, const Options& opt,
                          Tracer* tr, int* trace_id, Checker& checks,
                          Recoveries* recoveries) {
  const Seeds seeds = derive_seeds(opt.seed);
  const ScratchDir dir(opt.workdir);
  EpisodeResult out;
  fms::Stopwatch setup_clock;
  std::unique_ptr<Episode> ep = setup(spec, seeds, dir);
  out.setup_s = setup_clock.elapsed_seconds();

  std::unique_ptr<LayerReplay> replay;
  if (tr != nullptr) {
    replay = std::make_unique<LayerReplay>(*ep, spec, seeds.bench, dir);
  }
  const int rounds = spec.warmup + spec.search;
  for (int r = 0; r < rounds; ++r) {
    const bool search_phase = r >= spec.warmup;
    const double cpu0 = cpu_seconds();
    fms::Stopwatch clock;
    const int span =
        tr != nullptr ? tr->open("core.round", *trace_id, -1, false) : -1;
    fms::RoundRecord rec = search_phase
                               ? ep->search->run_search(1, ep->opts).front()
                               : ep->search->run_warmup(1).front();
    const double seconds = tr != nullptr ? tr->close(span)
                                         : clock.elapsed_seconds();
    out.cpu_s += cpu_seconds() - cpu0;
    out.round_s.push_back(seconds);
    checks.op(std::string(spec.name) + " round " + std::to_string(r),
              record_problems(rec));
    if (tr != nullptr) {
      const bool ckpt_round = search_phase && spec.checkpoint_every > 0 &&
                              (r + 1) % spec.checkpoint_every == 0;
      replay->replay(*ep->search, rec, search_phase, ckpt_round, *trace_id,
                     span, *tr, checks);
      tr->sample("core.round_self_ms",
                 1e3 * (seconds - tr->attributed_seconds(*trace_id, span)));
      ++*trace_id;
    }
    out.records.push_back(std::move(rec));
    if (recoveries != nullptr && recoveries->ready() &&
        (r + 1) % spec.recover_every == 0) {
      recoveries->time_one(*ep, checks);
    }
  }
  replay.reset();

  Digest digest;
  for (const fms::RoundRecord& rec : out.records) {
    fms::ByteWriter w;
    rec.canonical().serialize(w);
    digest.add(w.bytes());
  }
  out.digest = digest.hex();
  out.final_reward = out.records.back().moving_avg;

  // Ledger: every injected fault resolves exactly once, except faulted
  // updates still in flight, which are bounded by all in-flight updates
  // (dispatched but not yet applied, rejected or dropped).
  {
    long dispatched = 0;
    long resolved = 0;
    for (const fms::RoundRecord& r : out.records) {
      dispatched += r.cohort - r.offline;
      resolved += r.arrived + r.rejected + r.dropped;
    }
    const long in_flight = dispatched - resolved;
    const fms::FaultStats& fs = ep->search->fault_stats();
    const auto unresolved = static_cast<long>(fs.injected_total()) -
                            static_cast<long>(fs.accounted());
    std::vector<std::string> p;
    if (in_flight < 0 || in_flight > 2L * kParticipants) {
      p.push_back("in-flight updates out of range");
    }
    if (unresolved < 0 || unresolved > in_flight) {
      p.push_back("fault ledger unbalanced");
    }
    if (!spec.stale_faulty && (in_flight != 0 || fs.injected_total() != 0)) {
      p.push_back("clean run has faults or stragglers");
    }
    checks.op(std::string(spec.name) + " fault ledger", p);
  }
  checks.op(
      std::string(spec.name) + " genotype",
      genotype_problems(ep->search->derive(), ep->cfg.supernet.num_nodes));
  out.test_accuracy = weight_sharing_accuracy(*ep->search, ep->cfg.supernet,
                                              ep->data.test, seeds.bench);
  checks.op(std::string(spec.name) + " test accuracy",
            in_unit(out.test_accuracy), "accuracy outside [0,1]");

  if (recoveries != nullptr) recoveries->keep(*ep, dir);
  return out;
}

// Kill-and-recover on a short journaled search: one checkpointed round is
// replayed, giving core.replay_ms_per_round where the workload has none.
void probe_durability(const Options& opt, Tracer& tr, Checker& checks) {
  const Seeds seeds = derive_seeds(opt.seed);
  const ScratchDir dir(opt.workdir);
  std::unique_ptr<Episode> ep = setup(kIid, seeds, dir);
  ep->opts.checkpoint_every = 2;
  ep->opts.checkpoint_path = dir.file("checkpoint.bin");
  ep->search->enable_journal(dir.file("journal.bin"), ep->opts.fault_plan);
  ep->search->run_warmup(1);
  ep->search->run_search(2, ep->opts);  // checkpoint after round 1
  const std::vector<std::uint8_t> live = ep->search->checkpoint().serialize();
  ep->search.reset();
  const double read_s = tr.measure("core.checkpoint_read", -1, -1, false, [&] {
    fms::read_checkpoint_file(ep->opts.checkpoint_path);
  });
  fms::FederatedSearch fresh(ep->cfg, ep->data.train, ep->partition);
  fms::FederatedSearch::RecoverConfig rc;
  rc.checkpoint_path = ep->opts.checkpoint_path;
  rc.journal_path = dir.file("journal.bin");
  rc.warmup_rounds = 1;
  rc.search = ep->opts;
  fms::Stopwatch clock;
  const fms::FederatedSearch::RecoveryReport rep = fresh.recover(rc);
  const double recover_s = clock.elapsed_seconds();
  const bool ok = rep.replayed_rounds == 1 &&
                  fresh.checkpoint().serialize() == live;
  checks.op("durability probe recovery", ok, "replay did not reproduce");
  if (rep.replayed_rounds > 0) {
    tr.sample("core.replay_ms_per_round",
              1e3 * (recover_s - read_s) / rep.replayed_rounds);
  }
}

// Per-layer values a traced search run derives from its round records.
void record_round_layers(const std::vector<fms::RoundRecord>& records,
                         Tracer& tr) {
  double stale = 0, arrived = 0, rejected = 0, screened = 0, applied = 0;
  double cohort = 0, live = 0, partial = 0;
  for (const fms::RoundRecord& r : records) {
    stale += r.stale_arrived;
    arrived += r.arrived;
    rejected += r.rejected + r.agg_rejected;
    screened += r.arrived + r.rejected;
    applied += r.arrived - r.agg_rejected;
    cohort += r.cohort;
    live += r.live;
    partial += r.partial_quorum ? 1.0 : 0.0;
    tr.sample("net.sim_latency_s", r.max_latency_s);
    tr.sample("net.sim_commit_s", r.commit_latency_s);
    tr.sample("net.wire_kb_per_round",
              static_cast<double>(r.bytes_down + r.bytes_up) / 1024.0);
  }
  const double n = static_cast<double>(records.size());
  tr.sample("dc.stale_ratio", arrived > 0 ? stale / arrived : 0.0);
  tr.sample("agg.rejected_ratio", screened > 0 ? rejected / screened : 0.0);
  tr.sample("fed.applied_ratio", cohort > 0 ? applied / cohort : 0.0);
  tr.sample("sim.live_ratio", live / (kParticipants * n));
  tr.sample("fault.partial_quorum_ratio", partial / n);
}

Result run_search(const SearchSpec& spec, const Options& opt) {
  Result res;
  const fms::Stopwatch run_clock;
  Tracer tr(run_clock);
  Tracer probes(run_clock);
  int trace_id = 0;
  std::vector<EpisodeResult> episodes;
  std::vector<double> plain_round_s;
  std::vector<fms::RoundRecord> traced_records;
  double cpu_s = 0.0;
  double round_wall_s = 0.0;
  std::size_t timed_rounds = 0;
  double last_episode_s = 0.0;
  Recoveries recoveries(spec, opt.workdir);
  while (want_episode(opt, run_clock.elapsed_seconds(), episodes.size(),
                      timed_rounds, kMinTimed, last_episode_s)) {
    const double episode_start = run_clock.elapsed_seconds();
    const bool traced = opt.trace && episodes.size() % 2 == 1;
    EpisodeResult e = run_episode(spec, opt, traced ? &tr : nullptr,
                                  &trace_id, res.checks, &recoveries);
    cpu_s += e.cpu_s;
    for (double s : e.round_s) round_wall_s += s;
    if (traced) {
      traced_records.insert(traced_records.end(), e.records.begin(),
                            e.records.end());
    } else {
      plain_round_s.insert(plain_round_s.end(), e.round_s.begin(),
                           e.round_s.end());
    }
    timed_rounds += e.round_s.size();
    episodes.push_back(std::move(e));
    last_episode_s = run_clock.elapsed_seconds() - episode_start;
  }
  std::vector<std::string> digests;
  for (const EpisodeResult& e : episodes) digests.push_back(e.digest);
  check_digests(opt, digests, "records_fnv1a64", res);
  std::string episode_ms;
  for (const EpisodeResult& e : episodes) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %.1f", 1e3 * median(e.round_s));
    episode_ms += buf;
  }
  res.notes.push_back("per-episode round p50 (ms):" + episode_ms);
  std::string schedule;
  for (const fms::RoundRecord& r : episodes[0].records) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %d/%d", r.cohort - r.offline,
                  r.degrade_mode);
    schedule += buf;
  }
  res.notes.push_back("episode 0 dispatched/ladder mode per round:" +
                      schedule);

  std::vector<double> setup_s, round_s;
  for (std::size_t i = episodes.size(); i < kMinSetups; ++i) {
    const ScratchDir dir(opt.workdir);
    fms::Stopwatch clock;
    setup(spec, derive_seeds(opt.seed), dir);
    setup_s.push_back(clock.elapsed_seconds());
  }
  // A run too short to recover between rounds often enough tops up at
  // its end.
  if (recoveries.seconds.size() < kMinRecoveries) {
    const ScratchDir dir(opt.workdir);
    const std::unique_ptr<Episode> ep = setup(spec, derive_seeds(opt.seed), dir);
    while (recoveries.seconds.size() < kMinRecoveries) {
      recoveries.time_one(*ep, res.checks);
    }
  }
  const std::vector<double>& recover_s = recoveries.seconds;
  double applied_samples = 0.0;
  double wire_kb = 0.0, sim_commit = 0.0;
  for (const EpisodeResult& e : episodes) {
    setup_s.push_back(e.setup_s);
    round_s.insert(round_s.end(), e.round_s.begin(), e.round_s.end());
    for (const fms::RoundRecord& r : e.records) {
      applied_samples += static_cast<double>(r.arrived) * kBatch;
    }
  }
  double dispatched = 0.0;
  for (const fms::RoundRecord& r : episodes[0].records) {
    dispatched += r.cohort - r.offline;
    wire_kb += static_cast<double>(r.bytes_down + r.bytes_up) / 1024.0;
    sim_commit += r.commit_latency_s;
  }
  const double n0 = static_cast<double>(episodes[0].records.size());

  if (!opt.trace) {
    res.metrics = {
        {"setup_s", median(setup_s), "s", ""},
        {"round_ms_p50", 1e3 * median(round_s), "ms", ""},
        {"round_ms_p90", 1e3 * quantile(round_s, 0.9), "ms", ""},
        {"samples_per_s", applied_samples / round_wall_s, "1/s", ""},
        {"recover_s", median(recover_s), "s",
         spec.checkpoint_every > 0 ? "recover()" : "checkpoint restore"},
        {"peak_rss_mb",
         static_cast<double>(fms::obs::peak_rss_bytes()) / 1048576.0, "MB",
         ""},
    };
    res.report = {
        {"final_reward", episodes[0].final_reward, "ratio",
         "last moving_avg, exact per seed"},
        {"test_accuracy", episodes[0].test_accuracy, "ratio",
         "weight-sharing, exact per seed"},
        {"timed_rounds", static_cast<double>(round_s.size()), "count", ""},
        {"train_steps_per_round", dispatched / n0, "count", "episode 0"},
        {"episodes", static_cast<double>(episodes.size()), "count", ""},
        {"wire_kb_per_round", wire_kb / n0, "KB", "simulated"},
        {"sim_commit_s", sim_commit / n0, "s", "simulated"},
    };
    return res;
  }

  record_round_layers(traced_records, tr);
  tr.sample("core.cpu_util", cpu_s / round_wall_s);
  const double traced_p50 = median(tr.durations("core.round"));
  tr.sample("core.tracing_overhead_pct",
            100.0 * (traced_p50 / median(plain_round_s) - 1.0));
  if (spec.checkpoint_every > 0) {
    const double read_s = median(tr.durations("core.checkpoint_read"));
    for (const double rs : recover_s) {
      if (recoveries.replayed_rounds == 0) break;
      tr.sample("core.replay_ms_per_round",
                1e3 * (rs - read_s) / recoveries.replayed_rounds);
    }
  } else {
    probe_durability(opt, probes, res.checks);
  }
  probe_candidate_ops(derive_seeds(opt.seed).bench, kBatch, tr);
  probe_retrain_layers(opt, 3, probes, res.checks);
  res.metrics = layer_metrics(tr, probes, res.checks);
  tr.write_jsonl(opt.workdir + "/spans-" + spec.name + "-" +
                 std::to_string(opt.seed) + ".jsonl");
  return res;
}

}  // namespace

Result run_search_iid(const Options& opt) { return run_search(kIid, opt); }

Result run_search_stale_faulty(const Options& opt) {
  return run_search(kStaleFaulty, opt);
}

void probe_search_layers(const Options& opt, Tracer& tr, Checker& checks) {
  // A short traced search_iid episode (1 warm-up + 2 search rounds).
  constexpr SearchSpec kProbe{"search_probe", false, 1, 2, 0, 0};
  int trace_id = 0;
  const EpisodeResult e =
      run_episode(kProbe, opt, &tr, &trace_id, checks, nullptr);
  record_round_layers(e.records, tr);
  probe_durability(opt, tr, checks);
}

}  // namespace perfbench
