#include "src/core/search.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <filesystem>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "src/common/serialize.h"
#include "src/common/stopwatch.h"
#include "src/nn/optim.h"
#include "src/obs/alloc.h"
#include "src/obs/health.h"
#include "src/obs/profile.h"
#include "src/obs/span.h"
#include "src/obs/telemetry.h"
#include "src/obs/trace_ctx.h"
#include "src/obs/work.h"
#include "src/tensor/ops.h"

namespace fms {
namespace {

// Header of the opaque runtime-state blob inside v2 checkpoints. Bumped to
// "FMS4" when the churn layer appended the client registry, the deadline-
// estimator window, and the degradation-controller state (and the fault
// ledger grew the uplink counter): older blobs fail the magic check
// instead of misparsing a shifted layout.
constexpr std::uint32_t kRuntimeMagic = 0x464d5334;  // "FMS4"

// Cohort selection: the live fleet, or — under a cohort shrink (degrade
// != nullptr, mode >= shrink_cohort) — only its fastest cohort_fraction,
// ranked by the raw modeled download latency (the bandwidth the server
// just measured), ties broken by id. Deterministic, no RNG draw.
std::vector<char> select_cohort(const ClientRegistry::RoundMembership& mem,
                                const std::vector<double>& latency,
                                const DegradeConfig* degrade) {
  std::vector<char> in_cohort(mem.live_mask.begin(), mem.live_mask.end());
  if (degrade == nullptr || mem.live == 0) return in_cohort;
  std::vector<std::pair<double, int>> order;
  order.reserve(static_cast<std::size_t>(mem.live));
  for (std::size_t i = 0; i < in_cohort.size(); ++i) {
    if (in_cohort[i] != 0) order.emplace_back(latency[i], static_cast<int>(i));
  }
  std::sort(order.begin(), order.end());
  int keep = static_cast<int>(
      std::ceil(degrade->cohort_fraction * static_cast<double>(mem.live)));
  keep = std::max(keep, std::min(degrade->min_cohort, mem.live));
  keep = std::min(keep, mem.live);
  for (std::size_t o = static_cast<std::size_t>(keep); o < order.size(); ++o) {
    in_cohort[static_cast<std::size_t>(order[o].second)] = 0;
  }
  return in_cohort;
}

// Adaptive screening: tighten the norm cutoff to median + k*MAD of the
// round's arrivals (robust location/scale, so up to half the fleet lying
// cannot widen the bound) when enough updates arrived; otherwise the
// fixed cap applies. The bound never exceeds the cap.
float screen_bound_for(const std::vector<UpdateMsg>& arrivals,
                       const SearchOptions& opts) {
  if (!opts.screen_updates || !opts.adaptive_screen) {
    return opts.screen_max_grad_norm;
  }
  std::vector<double> norms;
  norms.reserve(arrivals.size());
  for (const UpdateMsg& u : arrivals) {
    double sq = 0.0;
    for (float g : u.grads) sq += static_cast<double>(g) * g;
    const double norm = std::sqrt(sq);
    if (std::isfinite(norm)) norms.push_back(norm);
  }
  return static_cast<float>(agg::adaptive_norm_bound(
      norms, opts.adaptive_screen_k, opts.adaptive_screen_min,
      static_cast<double>(opts.screen_max_grad_norm)));
}

// Work of the mean path's masked scatter (its agg.mean estimator): one add
// per scattered element plus one scale per theta coordinate.
obs::OpCost scatter_mean_cost(const std::vector<std::vector<float>>& grads,
                              const std::vector<Param*>& params) {
  std::uint64_t scattered = 0;
  for (const std::vector<float>& g : grads) scattered += g.size();
  std::uint64_t dim = 0;
  for (const Param* p : params) dim += p->grad.numel();
  obs::OpCost cost;
  cost.flops = scattered + dim;
  cost.bytes_read = 4 * scattered;
  cost.bytes_written = 4 * dim;
  cost.elements = dim;
  return cost;
}

}  // namespace

FederatedSearch::FederatedSearch(const SearchConfig& cfg,
                                 const Dataset& train_data,
                                 const std::vector<std::vector<int>>& partition)
    : cfg_(cfg),
      rng_(cfg.seed),
      policy_(Cell::num_edges(cfg.supernet.num_nodes), cfg.alpha),
      theta_opt_(SGD::Options{cfg.theta.learning_rate, cfg.theta.momentum,
                              cfg.theta.weight_decay, cfg.theta.gradient_clip}),
      pool_(/*staleness_threshold=*/5),
      moving_(50) {
  if (cfg.telemetry.enabled) {
    obs::Telemetry::instance().configure(cfg.telemetry, cfg.seed);
    owns_telemetry_ = true;
  }
  if (cfg.telemetry.enabled &&
      (cfg.telemetry.health || !cfg.telemetry.health_report_path.empty())) {
    health_ = std::make_unique<obs::HealthMonitor>();
  }
  staleness_rng_ = rng_.fork();
  Rng net_rng = rng_.fork();
  supernet_ = std::make_unique<Supernet>(cfg.supernet, net_rng);
  FMS_CHECK_MSG(!partition.empty(), "need at least one participant");
  for (std::size_t k = 0; k < partition.size(); ++k) {
    participants_.push_back(std::make_unique<SearchParticipant>(
        static_cast<int>(k), Shard(&train_data, partition[k]), cfg.supernet,
        cfg.augment, cfg.schedule.batch_size, rng_.fork()));
    // Default environment mix: participants cycle through the six mobility
    // settings; Fig. 7 benches construct their own traces explicitly.
    traces_.emplace_back(
        static_cast<NetEnvironment>(k % kNumNetEnvironments), rng_.fork());
  }
  registry_ = ClientRegistry(static_cast<int>(partition.size()));
}

ThreadPool& FederatedSearch::train_pool() {
  if (!train_pool_) {
    const std::size_t threads =
        cfg_.threads > 0 ? static_cast<std::size_t>(cfg_.threads)
                         : std::max(1U, std::thread::hardware_concurrency());
    train_pool_ =
        std::make_unique<ThreadPool>(std::min(threads, participants_.size()));
  }
  return *train_pool_;
}

FederatedSearch::~FederatedSearch() {
  if (health_ && !cfg_.telemetry.health_report_path.empty()) {
    health_->write_report(cfg_.telemetry.health_report_path);
  }
  if (owns_telemetry_) obs::Telemetry::instance().finish();
}

SearchOptions FederatedSearch::warmup_options() {
  SearchOptions opts;
  opts.update_alpha = false;
  opts.update_theta = true;
  opts.stale_policy = StalePolicy::kHardSync;
  return opts;
}

std::vector<RoundRecord> FederatedSearch::run_warmup(int steps) {
  const SearchOptions opts = warmup_options();
  std::vector<RoundRecord> records;
  records.reserve(static_cast<std::size_t>(steps));
  for (int s = 0; s < steps; ++s) {
    records.push_back(run_round(round_counter_++, opts));
    journal_round(0, records.back());
    if (on_round) on_round(records.back());
  }
  return records;
}

std::vector<RoundRecord> FederatedSearch::run_search(
    int steps, const SearchOptions& opts) {
  const bool auto_ckpt =
      opts.checkpoint_every > 0 && !opts.checkpoint_path.empty();
  std::vector<RoundRecord> records;
  records.reserve(static_cast<std::size_t>(steps));
  for (int s = 0; s < steps; ++s) {
    records.push_back(run_round(round_counter_++, opts));
    journal_round(1, records.back());
    if (on_round) on_round(records.back());
    if (auto_ckpt && round_counter_ % opts.checkpoint_every == 0) {
      FMS_SPAN("checkpoint");
      write_checkpoint_file(opts.checkpoint_path, checkpoint(),
                            disk_faults_.get(),
                            static_cast<std::uint64_t>(round_counter_));
      if (obs::telemetry_enabled()) {
        obs::Telemetry::instance().registry().counter("fms.checkpoints.written")
            .add(1);
      }
      // Rotate the journal at the instant the checkpoint commits: the
      // retained `.prev` checkpoint generation stays covered by the
      // `.prev` journal frames, so recovery can replay forward from
      // either generation. (A kill between the two renames is safe —
      // recovery filters frames to rounds past the restored checkpoint.)
      if (journal_) {
        journal_->rotate();
        if (obs::telemetry_enabled()) {
          obs::Telemetry::instance().registry().counter("fms.journal.rotations")
              .add(1);
        }
      }
    }
  }
  return records;
}

void FederatedSearch::enable_journal(const std::string& path,
                                     const FaultPlan& disk_plan) {
  journal_ = std::make_unique<RoundJournal>(path, disk_plan);
  disk_faults_ = std::make_unique<FaultInjector>(disk_plan, 1);
}

void FederatedSearch::journal_round(std::uint8_t phase,
                                    const RoundRecord& rec) {
  if (!journal_) return;
  // Purely observational: save_state() is const on every stream touched
  // here, so the trajectory is bit-identical with journaling on or off.
  JournalFrame f;
  f.phase = phase;
  f.round = rec.round;
  f.record = rec.canonical();
  f.rng_cursor = rng_.save_state();
  f.staleness_cursor = staleness_rng_.save_state();
  f.degrade_mode = static_cast<int>(degrade_.mode());
  f.degrade_transitions = degrade_.transitions();
  const JournalStats before = journal_->stats();
  journal_->append(f);
  if (obs::telemetry_enabled()) {
    const JournalStats& after = journal_->stats();
    auto& reg = obs::Telemetry::instance().registry();
    if (after.frames_written > before.frames_written) {
      reg.counter("fms.journal.frames_written").add(1);
    }
    if (after.eio_retries > before.eio_retries) {
      reg.counter("fms.journal.eio_retries").add(1);
    }
    if (after.short_writes > before.short_writes) {
      reg.counter("fms.journal.short_writes").add(1);
    }
  }
}

RoundRecord FederatedSearch::run_round(int t, const SearchOptions& opts) {
  const int k = num_participants();
  const bool telemetry = obs::telemetry_enabled();
  if (telemetry) obs::Telemetry::instance().set_round(t);
  // Causal tracing (src/obs/trace_ctx): every hook below is purely
  // observational — no RNG draw, no float op — so the search trajectory is
  // bit-identical with tracing on or off (pinned by test).
  const bool tracing = obs::tracing_enabled();
  obs::TraceContext& trace = obs::TraceContext::instance();
  if (tracing) trace.begin_round(t);
  FMS_SPAN("round");
  RoundRecord rec;
  rec.round = t;
  const FaultStats stats_before = fault_stats_;
  const FaultInjector injector(opts.fault_plan, k);
  const bool faults = injector.active();

  // --- churn membership + degradation mode for the round ---
  // The churn model is a pure function of (seed, client, round); the
  // registry persists each client's history across membership changes.
  // Both are observational with an empty plan: live == k, joined == left
  // == 0, and the round proceeds exactly as before the churn layer.
  const ChurnModel churn(opts.churn_plan, k);
  const ClientRegistry::RoundMembership mem = registry_.begin_round(churn, t);
  rec.live = mem.live;
  rec.joined = mem.joined;
  rec.left = mem.left;
  // The ladder mode was decided by previous rounds' outcomes (causal, so
  // checkpoint/resume replays it exactly); this round runs under it.
  const DegradeMode mode =
      opts.degrade.max_mode > 0 ? degrade_.mode() : DegradeMode::kNormal;
  rec.degrade_mode = static_cast<int>(mode);

  // --- sample masks and snapshot state (Alg. 1 lines 4-9) ---
  std::vector<Mask> masks;
  const bool soft_sync = opts.stale_policy != StalePolicy::kHardSync;
  {
    FMS_SPAN("sample");
    masks.reserve(static_cast<std::size_t>(k));
    for (int i = 0; i < k; ++i) masks.push_back(policy_.sample(rng_));
    if (soft_sync) {
      RoundSnapshot snap;
      snap.theta = supernet_->flat_values();
      snap.alpha = policy_.alpha();
      snap.masks = masks;
      pool_.save(t, std::move(snap));
    }
  }

  // --- adaptive transmission (Alg. 1 lines 10-11, Fig. 7) ---
  // Effective download latency per participant after link faults and the
  // retransmit-with-backoff defense; infinity marks a dead link.
  std::vector<int> assignment;
  std::vector<double> latency(static_cast<std::size_t>(k), 0.0);
  std::vector<char> offline(static_cast<std::size_t>(k), 0);
  std::vector<char> link_dead(static_cast<std::size_t>(k), 0);
  std::vector<LinkOutcome> links(static_cast<std::size_t>(k));
  LatencyStats lat;  // raw modeled latencies; cohort selection reads them
  {
    FMS_SPAN("transmit");
    std::vector<std::size_t> model_bytes;
    std::vector<double> bandwidths;
    model_bytes.reserve(static_cast<std::size_t>(k));
    bandwidths.reserve(static_cast<std::size_t>(k));
    for (int i = 0; i < k; ++i) {
      model_bytes.push_back(
          supernet_->submodel_bytes(masks[static_cast<std::size_t>(i)]));
      // Traces advance for every participant — offline or not — so a faulty
      // run stays on the fault-free run's bandwidth trajectory.
      bandwidths.push_back(traces_[static_cast<std::size_t>(i)].next_bps());
    }
    assignment = assign_models(model_bytes, bandwidths, opts.assign, rng_);
    lat = transmission_latency(
        model_bytes, bandwidths, assignment,
        opts.assign == AssignStrategy::kAverageSize);
    rec.max_latency_s = lat.max_seconds;
    rec.mean_latency_s = lat.mean_seconds;
    for (int i = 0; i < k; ++i) {
      const auto ui = static_cast<std::size_t>(i);
      if (faults && injector.is_offline(i, t)) {
        offline[ui] = 1;
        continue;
      }
      double li = lat.per_participant[ui];
      if (faults) {
        links[ui] = injector.link_outcome(i, t, opts.max_retransmits,
                                          opts.retransmit_backoff_s);
        if (!links[ui].delivered) {
          link_dead[ui] = 1;
          continue;
        }
        li = li / links[ui].bandwidth_scale + links[ui].extra_seconds;
      }
      if (!std::isfinite(li)) {  // zero-bandwidth link from the trace itself
        link_dead[ui] = 1;
        continue;
      }
      latency[ui] = li;
    }
  }

  const std::vector<char> in_cohort = select_cohort(
      mem, lat.per_participant,
      mode >= DegradeMode::kShrinkCohort ? &opts.degrade : nullptr);
  rec.cohort = static_cast<int>(std::count_if(
      in_cohort.begin(), in_cohort.end(), [](char c) { return c != 0; }));
  rec.shed = mem.live - rec.cohort;

  // --- quorum commit (defense): close the round at the ceil(q*K)-th
  // arrival or the timeout cap, whichever comes first. Updates expected
  // after the deadline are "late" and fold into the soft-sync/DC path.
  // The quorum count stays anchored to the full registry population K:
  // committing with less coverage than ceil(q*K) is a partial quorum even
  // when churn shrank the live set — that erosion is exactly the signal
  // the degradation controller keys on. Mode >= partial_quorum relieves
  // the requirement itself so rounds commit with what arrived.
  double deadline = std::numeric_limits<double>::infinity();
  {
    FMS_SPAN("quorum");
    std::vector<double> cands;
    cands.reserve(static_cast<std::size_t>(k));
    for (int i = 0; i < k; ++i) {
      const auto ui = static_cast<std::size_t>(i);
      if (in_cohort[ui] != 0 && offline[ui] == 0 && link_dead[ui] == 0) {
        cands.push_back(latency[ui]);
      }
    }
    // Timeout cap: the adaptive windowed-quantile deadline replaces the
    // static round_timeout_s once warm; degradation mode >= relax_deadline
    // stretches whichever cap is in effect.
    double timeout = opts.round_timeout_s;
    if (opts.adaptive_timeout.enabled) {
      const double est = deadline_est_.deadline(opts.adaptive_timeout);
      if (std::isfinite(est)) timeout = est;
    }
    if (mode >= DegradeMode::kRelaxDeadline && timeout > 0.0) {
      timeout *= opts.degrade.relax_factor;
    }
    rec.deadline_s = timeout;
    double q = opts.quorum;
    if (mode >= DegradeMode::kPartialQuorum) q *= opts.degrade.quorum_relief;
    const QuorumOutcome qo = quorum_commit(cands, q, k, timeout);
    deadline = qo.deadline;
    rec.partial_quorum = qo.partial;
    rec.commit_latency_s = qo.commit_latency_s;
    if (tracing) {
      // Server-track commit event at the deadline tick.
      trace.record(-1, obs::Stage::kQuorum, rec.commit_latency_s, 0.0,
                   rec.commit_latency_s,
                   rec.partial_quorum ? "partial" : "full");
    }
  }

  // --- dispatch, local training, delayed arrival (lines 12-15) ---
  // Serialized mask/header overhead of a message whose values travel
  // through the configured codec.
  auto payload_bytes = [&](const Mask& m, std::size_t num_values) {
    return 4 + (8 + m.normal.size()) + (8 + m.reduce.size()) +
           codec_encoded_bytes(num_values, opts.codec);
  };
  obs::Histogram* down_hist = nullptr;
  obs::Histogram* up_hist = nullptr;
  if (telemetry) {
    auto& reg = obs::Telemetry::instance().registry();
    // Per-participant payload distribution, in bytes (linear-ish coverage
    // from 1KB to 100MB via the default log-spaced buckets scaled by 1e9).
    std::vector<double> byte_bounds;
    for (double b : obs::default_time_buckets()) byte_bounds.push_back(b * 1e9);
    down_hist = &reg.histogram("fms.participant.bytes_down", byte_bounds);
    up_hist = &reg.histogram("fms.participant.bytes_up", byte_bounds);
  }
  // Classifies the outcome of a payload fault attached to an update that
  // never gets applied (the third outcome, "recovered", is recorded at
  // apply time in the arrivals loop below).
  auto account_payload_drop = [&](const std::optional<FaultKind>& pf) {
    if (pf.has_value()) ++fault_stats_.dropped;
  };
  // Clients pass three stages. Dispatch (sequential) takes every RNG,
  // staleness, fault, registry and byte-accounting step in participant
  // order. Train runs the dispatched train_steps on the pool; each task
  // writes only its own slot, and a train step is a pure function of its
  // participant's state and message, so the round is bit-identical for
  // any thread count. Arrive (sequential, participant order) runs the
  // upload path. Tracing parks the dispatch stage's events and publishes
  // them per participant in the arrive stage: the recorded order is the
  // one a serial round produces.
  struct Dispatched {
    int participant = 0;
    int tau_draw = 0;
    std::optional<FaultKind> pf;   // payload fault on this update
    std::optional<FaultKind> byz;  // Byzantine attack this client runs
    SubmodelMsg msg;
    UpdateMsg upd;  // written by the train stage
  };
  std::vector<Dispatched> sent;
  sent.reserve(static_cast<std::size_t>(k));
  std::optional<obs::DeferredEvents> deferred;
  if (tracing) deferred.emplace(k);
  for (int i = 0; i < k; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    // Staleness draws happen for every participant — even offline or
    // churned-away ones — so faulty/churny and clean runs consume the
    // same staleness stream.
    const int tau_draw =
        soft_sync ? opts.staleness.sample_traced(staleness_rng_, i) : 0;
    if (mem.live_mask[ui] == 0) {
      // Churned away: not a fault. The server never dispatches, charges
      // no bytes, and books nothing in the fault ledger — the client
      // simply is not there this round.
      if (tracing) {
        trace.record(i, obs::Stage::kDrop, 0.0, 0.0, 0.0, "churn_absent");
      }
      continue;
    }
    if (in_cohort[ui] == 0) {
      // Shed by cohort shrink (degradation mode >= 2): live but not
      // dispatched to this round.
      if (tracing) {
        trace.record(i, obs::Stage::kDrop, 0.0, 0.0, 0.0, "cohort_shed");
      }
      continue;
    }
    if (offline[ui] != 0) {
      ++rec.offline;
      if (injector.is_crashed(i, t)) {
        ++fault_stats_.injected_crash;
        if (tracing) trace.record(i, obs::Stage::kDrop, 0.0, 0.0, 0.0, "crash");
      } else {
        ++fault_stats_.injected_dropout;
        if (tracing) {
          trace.record(i, obs::Stage::kDrop, 0.0, 0.0, 0.0, "dropout");
        }
      }
      ++fault_stats_.dropped;  // no reply ever arrives
      continue;
    }
    if (links[ui].faulted()) {
      ++fault_stats_.injected_link;
      fault_stats_.retransmits += static_cast<std::uint64_t>(
          links[ui].retransmits);
      rec.retransmits += links[ui].retransmits;
      if (tracing) {
        trace.record(i, obs::Stage::kFault, 0.0, links[ui].extra_seconds,
                     static_cast<double>(links[ui].retransmits),
                     link_dead[ui] != 0 ? "link:dead" : "link:recovered");
      }
      if (link_dead[ui] != 0) {
        ++fault_stats_.dropped;  // every attempt failed
      } else {
        ++fault_stats_.recovered;  // retransmit/collapse absorbed the fault
      }
    }
    if (link_dead[ui] != 0) {
      // Dead link: the download never lands, so no payload is built and no
      // bytes are charged — the server simply skips this participant.
      ++rec.dropped;
      if (tracing) trace.record(i, obs::Stage::kDrop, 0.0, 0.0, 0.0, "link_dead");
      continue;
    }
    const std::optional<FaultKind> pf =
        faults ? injector.payload_fault(i, t) : std::nullopt;
    // Spelled with an explicit engaged check (not optional==value): GCC's
    // -Wmaybe-uninitialized false-fires on the operator== template at -O3,
    // which FMS_WERROR would promote to a build break.
    const bool pf_corrupt =
        pf.has_value() && *pf == FaultKind::kCorruptPayload;
    // Byzantine attack this client runs, if any. Skipped when a payload
    // fault already fires: that update is destroyed anyway, and counting
    // both would double-book an update that resolves exactly once.
    const std::optional<FaultKind> byz =
        faults && !pf.has_value() ? injector.byzantine_kind(i, t)
                                  : std::nullopt;

    const Mask& mask = masks[static_cast<std::size_t>(assignment[i])];
    SubmodelMsg msg;
    msg.round = t;
    msg.mask = mask;
    {
      FMS_SPAN("prune");
      msg.values =
          supernet_->gather_values(supernet_->masked_param_ids(mask));
      if (opts.codec != Codec::kFloat32) {
        msg.values = codec_round_trip(msg.values, opts.codec);
      }
    }
    if (pf_corrupt) {
      // One corruption event flips bits on the wire in both directions:
      // the SubmodelMsg the client trains on and the UpdateMsg it returns.
      ++fault_stats_.injected_corrupt;
      injector.corrupt(msg.values, i, t);
    }
    const std::size_t down = payload_bytes(mask, msg.values.size());
    rec.bytes_down += down;
    submodel_bytes_sum_ += down;
    ++submodel_count_;
    if (down_hist != nullptr) down_hist->observe(static_cast<double>(down));
    if (tracing) {
      trace.record(i, obs::Stage::kDispatch, 0.0, 0.0,
                   static_cast<double>(down));
    }
    registry_.note_dispatch(i, latency[ui]);
    sent.push_back(Dispatched{i, tau_draw, pf, byz, std::move(msg), {}});
  }

  train_pool().parallel_for(sent.size(), [&](std::size_t j) {
    Dispatched& d = sent[j];
    d.upd = participants_[static_cast<std::size_t>(d.participant)]
                ->train_step(d.msg);
  });
  deferred.reset();

  auto next = sent.begin();
  for (int i = 0; i < k; ++i) {
    if (tracing) trace.publish_deferred(i);
    if (next == sent.end() || next->participant != i) continue;
    Dispatched& d = *next++;
    const auto ui = static_cast<std::size_t>(i);
    UpdateMsg& upd = d.upd;
    const bool pf_corrupt =
        d.pf.has_value() && *d.pf == FaultKind::kCorruptPayload;
    const bool pf_divergent =
        d.pf.has_value() && *d.pf == FaultKind::kDivergent;
    // The fault attached to this update for exactly-once accounting.
    const std::optional<FaultKind> uf = d.pf.has_value() ? d.pf : d.byz;
    if (tracing) {
      // Local training lands at the end of the modeled download window;
      // value carries the reported training accuracy.
      trace.record(i, obs::Stage::kLocalTrain, latency[ui], 0.0,
                   static_cast<double>(upd.reward));
    }
    if (opts.codec != Codec::kFloat32) {
      upd.grads = codec_round_trip(upd.grads, opts.codec);
    }
    if (pf_divergent) {
      ++fault_stats_.injected_divergent;
      injector.poison(upd, i, t);
    } else if (pf_corrupt) {
      injector.corrupt(upd.grads, i, t);
    } else if (d.byz.has_value()) {
      fault_stats_.note_attack(*d.byz);
      injector.attack(upd, *d.byz, i, t);
    }
    if (tracing && uf.has_value()) {
      trace.record(i, obs::Stage::kFault, latency[ui], 0.0, 0.0,
                   fault_kind_name(*uf));
    }
    const std::size_t up = payload_bytes(upd.mask, upd.grads.size()) + 8;
    rec.bytes_up += up;
    if (up_hist != nullptr) up_hist->observe(static_cast<double>(up));

    // Upload-link faults with bounded retransmit + seeded backoff jitter:
    // a dead uplink drops the update after the client's bytes were spent;
    // recovered retries push its arrival later (possibly past the
    // deadline, where the soft-sync path absorbs it as stale).
    double up_extra = 0.0;
    if (faults) {
      const LinkOutcome up_link = injector.upload_outcome(
          i, t, opts.max_retransmits, opts.retransmit_backoff_s);
      if (up_link.faulted()) {
        ++fault_stats_.injected_uplink;
        fault_stats_.retransmits +=
            static_cast<std::uint64_t>(up_link.retransmits);
        rec.retransmits += up_link.retransmits;
        if (tracing) {
          trace.record(i, obs::Stage::kFault, latency[ui],
                       up_link.extra_seconds,
                       static_cast<double>(up_link.retransmits),
                       up_link.delivered ? "uplink:recovered" : "uplink:dead");
        }
        if (!up_link.delivered) {
          ++fault_stats_.dropped;  // the reply never reaches the server
          ++rec.dropped;
          account_payload_drop(uf);
          if (tracing) {
            trace.record(i, obs::Stage::kDrop, latency[ui], 0.0, 0.0,
                         "uplink_dead");
          }
          continue;
        }
        ++fault_stats_.recovered;
        up_extra = up_link.extra_seconds;
      }
    }
    const double arrive_s = latency[ui] + up_extra;
    // Feed the adaptive-deadline window with committed on-time round
    // times (always, so checkpoints carry a warm window whether or not
    // adaptive deadlines are enabled yet). Pure bookkeeping: no RNG, no
    // effect on the trajectory unless adaptive_timeout.enabled.
    if (arrive_s <= deadline + 1e-12) {
      deadline_est_.add_sample(arrive_s, opts.adaptive_timeout.window);
    }

    int tau = d.tau_draw;
    if (soft_sync && mem.rejoined[ui] != 0 && tau != kExceedsThreshold) {
      // A rejoining client trained against the state it last saw: its
      // first update back flows through the staleness/DC path rather
      // than being applied as fresh.
      tau = std::max(tau, 1);
    }
    if (arrive_s > deadline + 1e-12) {
      // Missed the quorum commit: fold into the soft-sync path one round
      // late at minimum; hard sync has no stale path, so the update drops.
      ++rec.late;
      if (soft_sync) {
        if (tau != kExceedsThreshold) tau = std::max(tau, 1);
      } else {
        ++rec.dropped;
        account_payload_drop(uf);
        if (tracing) {
          trace.record(i, obs::Stage::kDrop, arrive_s, 0.0, 0.0, "late");
        }
        continue;
      }
    }
    if (tau == kExceedsThreshold || tau > pool_.threshold()) {
      ++rec.dropped;  // beyond the staleness threshold: never applied
      account_payload_drop(uf);
      if (tracing) {
        trace.record(i, obs::Stage::kDrop, latency[ui], 0.0,
                     static_cast<double>(tau), "stale_overflow");
      }
      continue;
    }
    arrivals_[t + tau].push_back(std::move(upd));
  }
  total_bytes_down_ += rec.bytes_down;
  total_bytes_up_ += rec.bytes_up;

  // --- process this round's arrivals (lines 16-31) ---
  supernet_->zero_grad();
  AlphaPair grad_j = AlphaPair::zeros(policy_.num_edges());
  std::vector<std::pair<double, AlphaPair>> alpha_terms;  // (reward, dlogp)
  // Accepted updates, collected (not yet applied) so the aggregate phase
  // below can choose between the exact Eq. 13 mean and a robust estimator.
  std::vector<std::vector<std::size_t>> applied_ids;
  std::vector<std::vector<float>> applied_grads;
  // (participant, dispatch round) of each accepted update, so the
  // aggregate phase can attribute estimator verdicts to causal traces.
  std::vector<std::pair<int, int>> applied_from;
  double reward_sum = 0.0;
  double tau_sum = 0.0;
  int m = 0;
  {
    FMS_SPAN("compensate");
    obs::Histogram* tau_hist =
        telemetry ? &obs::Telemetry::instance().registry().histogram(
                        "fms.staleness.tau",
                        obs::linear_buckets(pool_.threshold()))
                  : nullptr;
    auto due = arrivals_.find(t);
    if (due != arrivals_.end()) {
      const float screen_bound = screen_bound_for(due->second, opts);
      if (opts.screen_updates) rec.screen_bound = screen_bound;
      for (UpdateMsg& upd : due->second) {
        const int tau = t - upd.round;
        if (tau_hist != nullptr) tau_hist->observe(static_cast<double>(tau));
        if (tracing) {
          trace.record(upd.participant, obs::Stage::kArrive, 0.0, 0.0,
                       static_cast<double>(tau),
                       tau > 0 ? "stale" : "fresh", upd.round);
        }
        // The injector is stateless, so the fault attached to this update
        // (possibly from an earlier round) is re-derived, not stored. Same
        // precedence as the dispatch site: payload fault, else Byzantine.
        std::optional<FaultKind> pf =
            faults ? injector.payload_fault(upd.participant, upd.round)
                   : std::nullopt;
        if (faults && !pf.has_value()) {
          pf = injector.byzantine_kind(upd.participant, upd.round);
        }
        if (opts.screen_updates) {
          // Defense: reject poisoned/corrupted updates before they can
          // reach theta, alpha, or the REINFORCE baseline.
          const char* violation = screen_update(upd, screen_bound);
          if (violation != nullptr) {
            ++rec.rejected;
            if (pf.has_value()) ++fault_stats_.rejected;
            if (telemetry) {
              obs::Telemetry::instance().registry()
                  .counter(std::string("fms.updates.rejected.") + violation)
                  .add(1);
            }
            continue;
          }
        }
        std::vector<float> grads;
        AlphaPair dlogp = AlphaPair::zeros(policy_.num_edges());
        std::vector<std::size_t> ids = supernet_->masked_param_ids(upd.mask);
        if (tau == 0) {
          grads = std::move(upd.grads);
          dlogp = policy_.log_prob_grad(upd.mask);
        } else {
          if (opts.stale_policy == StalePolicy::kDrop) {
            ++rec.dropped;
            if (pf.has_value()) ++fault_stats_.dropped;
            if (tracing) {
              trace.record(upd.participant, obs::Stage::kDrop, 0.0, 0.0,
                           static_cast<double>(tau), "stale_policy",
                           upd.round);
            }
            continue;
          }
          const RoundSnapshot* snap = pool_.find(upd.round);
          if (snap == nullptr) {  // evicted: nothing to compensate against
            ++rec.dropped;
            if (pf.has_value()) ++fault_stats_.dropped;
            if (tracing) {
              trace.record(upd.participant, obs::Stage::kDrop, 0.0, 0.0,
                           static_cast<double>(tau), "snapshot_evicted",
                           upd.round);
            }
            continue;
          }
          if (opts.stale_policy == StalePolicy::kUseStale) {
            grads = std::move(upd.grads);
            dlogp = ArchPolicy::log_prob_grad_at(snap->alpha, upd.mask);
          } else {  // kCompensate: Eq. 13 + Eq. 15
            std::vector<float> fresh_w = supernet_->gather_values(ids);
            std::vector<float> stale_w =
                supernet_->gather_from_flat(snap->theta, ids);
            grads = compensate_weight_gradient(upd.grads, fresh_w, stale_w,
                                               opts.dc_lambda);
            AlphaPair stale_dlogp =
                ArchPolicy::log_prob_grad_at(snap->alpha, upd.mask);
            dlogp = compensate_alpha_gradient(stale_dlogp, policy_.alpha(),
                                              snap->alpha, opts.dc_lambda);
            ++rec.compensated;
          }
          ++rec.stale_arrived;
        }
        tau_sum += tau;
        rec.max_tau = std::max(rec.max_tau, tau);
        applied_ids.push_back(std::move(ids));
        applied_grads.push_back(std::move(grads));
        applied_from.emplace_back(upd.participant, upd.round);
        alpha_terms.emplace_back(upd.reward, std::move(dlogp));
        reward_sum += upd.reward;
        ++m;
        registry_.note_applied(upd.participant, tau);
        // A faulted payload that survived screening and got applied was
        // absorbed by training — the third and final outcome.
        if (pf.has_value()) ++fault_stats_.recovered;
      }
      arrivals_.erase(due);
    }
  }

  rec.arrived = m;
  rec.mean_tau = m > 0 ? tau_sum / m : 0.0;
  {
    FMS_SPAN("aggregate");
    if (m > 0) {
      rec.mean_reward = reward_sum / m;
      // Robust reward channel (defense): winsorize the round's rewards into
      // the Tukey band before they can reach the moving average, the
      // baseline, or their own advantage — a lying client's influence is
      // then bounded by the band width, not by trust. The defended mean is
      // what the curves and the EMA see.
      if (opts.winsorize_rewards_k > 0.0) {
        std::vector<double> rewards;
        rewards.reserve(alpha_terms.size());
        for (const auto& term : alpha_terms) rewards.push_back(term.first);
        const agg::WinsorBounds wb =
            agg::winsor_bounds(rewards, opts.winsorize_rewards_k);
        double wsum = 0.0;
        for (auto& [reward, dlogp] : alpha_terms) {
          if (reward < wb.lo) {
            reward = wb.lo;
            ++rec.winsorized;
          } else if (reward > wb.hi) {
            reward = wb.hi;
            ++rec.winsorized;
          }
          wsum += reward;
        }
        rec.mean_reward = wsum / m;
      }
      rec.moving_avg = moving_.update(rec.mean_reward);

      // REINFORCE with moving-average baseline (Eq. 8-10). The median
      // baseline mode feeds the EMA a statistic a lying minority cannot
      // move at all (mean mode reproduces Eq. 9 exactly).
      double round_stat = rec.mean_reward;
      if (opts.baseline_mode == BaselineMode::kMedianReward) {
        std::vector<double> rewards;
        rewards.reserve(alpha_terms.size());
        for (const auto& term : alpha_terms) rewards.push_back(term.first);
        round_stat =
            ArchPolicy::round_statistic(rewards, BaselineMode::kMedianReward);
      }
      const double b = policy_.update_baseline(round_stat);
      for (auto& [reward, dlogp] : alpha_terms) {
        grad_j.add_scaled(dlogp, static_cast<float>(reward - b) /
                                     static_cast<float>(m));
      }
      if (opts.update_alpha) policy_.apply_gradient(grad_j);

      if (opts.aggregator.kind == agg::AggregatorKind::kMean) {
        // Eq. 13 exactly, preserving the pre-robustness float-op order:
        // scatter each accepted gradient in arrival order, then scale by
        // 1/m — bit-identical to the legacy in-loop scatter.
        {
          FMS_OP("agg.mean",
                 scatter_mean_cost(applied_grads, supernet_->params()));
          for (std::size_t u = 0; u < applied_grads.size(); ++u) {
            supernet_->scatter_add_grads(applied_ids[u], applied_grads[u]);
            if (tracing) {
              trace.record(applied_from[u].first, obs::Stage::kAggregate,
                           0.0, 0.0, 0.0, "applied", applied_from[u].second);
            }
          }
          if (opts.update_theta) {
            const float inv_m = 1.0F / static_cast<float>(m);
            for (Param* p : supernet_->params()) {
              for (float& g : p->grad.vec()) g *= inv_m;
            }
          }
        }
        if (opts.update_theta) theta_opt_.step(supernet_->params());
      } else {
        // Robust estimator: densify each masked update into the whole-net
        // coordinate space (unsampled ops contribute zero gradient, the
        // same semantics the legacy scatter gives the mean) and aggregate.
        // The presence masks let the per-coordinate estimators tell a
        // real zero gradient from an op the update never sampled — see
        // the participation-aware notes in src/agg/aggregator.h.
        std::vector<std::vector<float>> dense;
        std::vector<std::vector<std::uint8_t>> presence;
        dense.reserve(applied_grads.size());
        presence.reserve(applied_grads.size());
        for (std::size_t u = 0; u < applied_grads.size(); ++u) {
          dense.push_back(
              supernet_->dense_from_masked(applied_ids[u], applied_grads[u]));
          presence.push_back(supernet_->presence_from_masked(applied_ids[u]));
        }
        const agg::AggregationOutcome out =
            agg::aggregate(opts.aggregator, dense, presence);
        rec.agg_clipped = out.clipped_updates;
        rec.agg_clipped_mass = out.clipped_mass;
        rec.agg_trimmed = out.trimmed_values;
        rec.agg_rejected = out.rejected_updates;
        if (tracing) {
          // The krum family reports its survivor set; everything else
          // folds every update into the estimate.
          std::vector<char> kept(applied_from.size(),
                                 out.selected.empty() ? 1 : 0);
          for (const int s : out.selected) {
            if (s >= 0 && static_cast<std::size_t>(s) < kept.size()) {
              kept[static_cast<std::size_t>(s)] = 1;
            }
          }
          for (std::size_t u = 0; u < applied_from.size(); ++u) {
            trace.record(applied_from[u].first, obs::Stage::kAggregate, 0.0,
                         0.0, 0.0,
                         kept[u] != 0 ? "applied" : "rejected:estimator",
                         applied_from[u].second);
          }
        }
        if (opts.update_theta) {
          supernet_->add_flat_grads(out.grad);
          theta_opt_.step(supernet_->params());
        }
      }
    } else {
      rec.moving_avg = moving_.value();
    }
  }
  robust_stats_.clipped_updates += static_cast<std::uint64_t>(rec.agg_clipped);
  robust_stats_.clipped_mass += rec.agg_clipped_mass;
  robust_stats_.trimmed_values += static_cast<std::uint64_t>(rec.agg_trimmed);
  robust_stats_.rejected_updates +=
      static_cast<std::uint64_t>(rec.agg_rejected);
  robust_stats_.winsorized_rewards +=
      static_cast<std::uint64_t>(rec.winsorized);
  rec.alpha_entropy = policy_.mean_entropy();
  rec.baseline = policy_.baseline();

  if (soft_sync) pool_.evict(t);

  // --- degradation controller (hysteresis over committed outcomes) ---
  if (opts.degrade.max_mode > 0) {
    // Bad round: the quorum was not met on time, or the timeout cap
    // itself closed the round while stragglers were still inbound
    // (deadline blow-through).
    const bool cap_bound = rec.deadline_s > 0.0 &&
                           std::isfinite(deadline) &&
                           deadline >= rec.deadline_s - 1e-12 && rec.late > 0;
    const DegradationController::Transition dtr =
        degrade_.observe(rec.partial_quorum || cap_bound, opts.degrade);
    if (dtr.changed) {
      rec.degrade_transition = std::string(degrade_mode_name(dtr.from)) +
                               "->" + degrade_mode_name(dtr.to);
      if (static_cast<int>(dtr.to) > static_cast<int>(dtr.from)) {
        // Stepping deeper into degradation is an incident: snapshot the
        // per-participant lifecycle ring for the post-mortem.
        trace.dump_flight(std::string("degrade_enter:") +
                          degrade_mode_name(dtr.to));
      }
    }
  }

  // --- search-health monitor + flight-recorder triggers ---
  if (health_) {
    obs::HealthSignal sig;
    sig.participants = k;
    sig.live = rec.live;
    sig.joined = rec.joined;
    sig.left = rec.left;
    if (obs::profiling_enabled()) {
      sig.live_alloc_bytes = obs::alloc_stats().live_bytes;
    }
    rec.health = static_cast<int>(health_->observe(rec, sig));
    for (const obs::DetectorStatus& d : health_->detectors()) {
      if (d.state >= obs::HealthState::kWarn) {
        if (!rec.health_trips.empty()) rec.health_trips += ",";
        rec.health_trips += d.name;
      }
    }
    if (health_->crit_transition()) {
      trace.dump_flight("health_crit:" + health_->last_crit_detectors()[0]);
    }
  }
  if (rec.partial_quorum) trace.dump_flight("quorum_failure");
  if (tracing) {
    // Advance the sim clock past this round so the next round's events
    // render after it (the committed deadline bounds everything recorded
    // at a latency offset; stragglers surface as kArrive next rounds).
    trace.end_round(std::max(rec.commit_latency_s, rec.max_latency_s));
  }

  if (telemetry) record_round_telemetry(rec, opts, stats_before);
  return rec;
}

// Feeds the round's outcome into the metrics registry and emits the
// structured "round" trace event — everything the paper's systems curves
// (Figs. 7-8, Table V) are plotted from.
void FederatedSearch::record_round_telemetry(const RoundRecord& rec,
                                             const SearchOptions& opts,
                                             const FaultStats& before) {
  obs::Telemetry& telemetry = obs::Telemetry::instance();
  obs::MetricsRegistry& reg = telemetry.registry();

  reg.counter("fms.updates.arrived").add(static_cast<std::uint64_t>(rec.arrived));
  reg.counter("fms.updates.dropped").add(static_cast<std::uint64_t>(rec.dropped));
  reg.counter("fms.updates.stale").add(static_cast<std::uint64_t>(rec.stale_arrived));
  reg.counter("fms.updates.compensated")
      .add(static_cast<std::uint64_t>(rec.compensated));
  reg.counter("fms.bytes.down").add(rec.bytes_down);
  reg.counter("fms.bytes.up").add(rec.bytes_up);
  reg.counter("fms.rounds").add(1);

  // Fault-tolerance counters: this round's deltas of the cumulative ledger.
  auto add_delta = [&reg](const char* name, std::uint64_t now,
                          std::uint64_t prev) {
    if (now > prev) reg.counter(name).add(now - prev);
  };
  add_delta("fms.fault.injected.crash", fault_stats_.injected_crash,
            before.injected_crash);
  add_delta("fms.fault.injected.dropout", fault_stats_.injected_dropout,
            before.injected_dropout);
  add_delta("fms.fault.injected.link", fault_stats_.injected_link,
            before.injected_link);
  add_delta("fms.fault.injected.corrupt", fault_stats_.injected_corrupt,
            before.injected_corrupt);
  add_delta("fms.fault.injected.divergent", fault_stats_.injected_divergent,
            before.injected_divergent);
  add_delta("fms.fault.injected.sign_flip", fault_stats_.injected_sign_flip,
            before.injected_sign_flip);
  add_delta("fms.fault.injected.grad_scale", fault_stats_.injected_grad_scale,
            before.injected_grad_scale);
  add_delta("fms.fault.injected.collude", fault_stats_.injected_collude,
            before.injected_collude);
  add_delta("fms.fault.injected.reward_attack", fault_stats_.injected_reward,
            before.injected_reward);
  add_delta("fms.fault.rejected", fault_stats_.rejected, before.rejected);
  add_delta("fms.fault.dropped", fault_stats_.dropped, before.dropped);
  add_delta("fms.fault.recovered", fault_stats_.recovered, before.recovered);
  if (rec.rejected > 0) {
    reg.counter("fms.updates.rejected")
        .add(static_cast<std::uint64_t>(rec.rejected));
  }
  if (rec.late > 0) {
    reg.counter("fms.updates.late").add(static_cast<std::uint64_t>(rec.late));
  }
  if (rec.offline > 0) {
    reg.counter("fms.participants.offline")
        .add(static_cast<std::uint64_t>(rec.offline));
  }
  if (rec.retransmits > 0) {
    reg.counter("fms.retransmits")
        .add(static_cast<std::uint64_t>(rec.retransmits));
  }
  if (rec.partial_quorum) reg.counter("fms.rounds.partial_quorum").add(1);
  reg.histogram("fms.round.commit_latency_s").observe(rec.commit_latency_s);

  // Churn + degradation: membership deltas, live population, ladder mode.
  add_delta("fms.fault.injected.uplink", fault_stats_.injected_uplink,
            before.injected_uplink);
  if (rec.joined > 0) {
    reg.counter("fms.churn.joined").add(static_cast<std::uint64_t>(rec.joined));
  }
  if (rec.left > 0) {
    reg.counter("fms.churn.left").add(static_cast<std::uint64_t>(rec.left));
  }
  if (rec.shed > 0) {
    reg.counter("fms.churn.shed").add(static_cast<std::uint64_t>(rec.shed));
  }
  reg.gauge("fms.churn.live").set(static_cast<double>(rec.live));
  reg.gauge("fms.degrade.mode").set(static_cast<double>(rec.degrade_mode));
  if (!rec.degrade_transition.empty()) {
    reg.counter("fms.degrade.transitions").add(1);
  }

  // Robust-aggregation counters: how much influence the estimator removed.
  if (rec.agg_clipped > 0) {
    reg.counter("fms.agg.clipped").add(static_cast<std::uint64_t>(rec.agg_clipped));
  }
  if (rec.agg_trimmed > 0) {
    reg.counter("fms.agg.trimmed").add(static_cast<std::uint64_t>(rec.agg_trimmed));
  }
  if (rec.agg_rejected > 0) {
    reg.counter("fms.agg.rejected")
        .add(static_cast<std::uint64_t>(rec.agg_rejected));
  }
  if (rec.winsorized > 0) {
    reg.counter("fms.rewards.winsorized")
        .add(static_cast<std::uint64_t>(rec.winsorized));
  }

  reg.gauge("fms.policy.baseline").set(rec.baseline);
  reg.gauge("fms.alpha.entropy.mean").set(rec.alpha_entropy);
  reg.gauge("fms.round.moving_avg").set(rec.moving_avg);

  reg.histogram("fms.round.max_latency_s").observe(rec.max_latency_s);
  reg.histogram("fms.round.mean_latency_s").observe(rec.mean_latency_s);

  // Per-edge alpha entropy gauges (the paper's policy-sharpening signal).
  const std::vector<double> entropies = policy_.edge_entropies();
  const std::size_t half = entropies.size() / 2;
  obs::Histogram& ent_hist =
      reg.histogram("fms.alpha.edge_entropy", obs::linear_buckets(3));
  for (std::size_t e = 0; e < entropies.size(); ++e) {
    const bool normal = e < half;
    const std::size_t edge = normal ? e : e - half;
    reg.gauge(std::string("fms.alpha.entropy.") +
              (normal ? "normal." : "reduce.") + std::to_string(edge))
        .set(entropies[e]);
    ent_hist.observe(entropies[e]);
  }

  obs::TraceEvent event;
  event.type = "round";
  event.name = "round";
  event.round = rec.round;
  event.fields = {
      {"mean_reward", rec.mean_reward},
      {"moving_avg", rec.moving_avg},
      {"arrived", static_cast<double>(rec.arrived)},
      {"dropped", static_cast<double>(rec.dropped)},
      {"stale_arrived", static_cast<double>(rec.stale_arrived)},
      {"compensated", static_cast<double>(rec.compensated)},
      {"mean_tau", rec.mean_tau},
      {"max_tau", static_cast<double>(rec.max_tau)},
      {"bytes_down", static_cast<double>(rec.bytes_down)},
      {"bytes_up", static_cast<double>(rec.bytes_up)},
      {"max_latency_s", rec.max_latency_s},
      {"mean_latency_s", rec.mean_latency_s},
      {"alpha_entropy", rec.alpha_entropy},
      {"baseline", rec.baseline},
      {"dc_lambda", static_cast<double>(opts.dc_lambda)},
      {"offline", static_cast<double>(rec.offline)},
      {"rejected", static_cast<double>(rec.rejected)},
      {"late", static_cast<double>(rec.late)},
      {"retransmits", static_cast<double>(rec.retransmits)},
      {"partial_quorum", rec.partial_quorum ? 1.0 : 0.0},
      {"commit_latency_s", rec.commit_latency_s},
      {"agg_clipped", static_cast<double>(rec.agg_clipped)},
      {"agg_clipped_mass", rec.agg_clipped_mass},
      {"agg_trimmed", static_cast<double>(rec.agg_trimmed)},
      {"agg_rejected", static_cast<double>(rec.agg_rejected)},
      {"winsorized", static_cast<double>(rec.winsorized)},
      {"screen_bound", rec.screen_bound},
      {"health", static_cast<double>(rec.health)},
      {"live", static_cast<double>(rec.live)},
      {"joined", static_cast<double>(rec.joined)},
      {"left", static_cast<double>(rec.left)},
      {"cohort", static_cast<double>(rec.cohort)},
      {"shed", static_cast<double>(rec.shed)},
      {"deadline_s", rec.deadline_s},
      {"degrade_mode", static_cast<double>(rec.degrade_mode)},
  };
  telemetry.emit(std::move(event));

  // With --profile on, flush the zone tree into the sinks each round:
  // one "profile" trace event per zone plus the fms.prof.* / fms.alloc.*
  // gauges, then one "work" event per op plus the fms.work.* gauges from
  // the same tree (cumulative since the last reset_profiler()).
  if (obs::profiling_enabled()) {
    const obs::ProfileReport profile = obs::collect_profile();
    obs::emit_profile_telemetry(profile);
    obs::emit_work_telemetry(obs::collect_work(profile));
  }
}

SearchCheckpoint FederatedSearch::checkpoint() {
  SearchCheckpoint ckpt =
      make_checkpoint(*supernet_, policy_, cfg_.supernet.num_nodes,
                      round_counter_);
  ckpt.baseline_initialized = policy_.baseline_initialized();
  ckpt.runtime_state = serialize_runtime_state();
  return ckpt;
}

void FederatedSearch::restore(const SearchCheckpoint& ckpt) {
  FMS_CHECK_MSG(ckpt.num_nodes == cfg_.supernet.num_nodes,
                "checkpoint node count " << ckpt.num_nodes
                                         << " != configured "
                                         << cfg_.supernet.num_nodes);
  restore_checkpoint(ckpt, *supernet_, policy_);
  policy_.restore_baseline(ckpt.baseline, ckpt.baseline_initialized);
  round_counter_ = ckpt.round;
  if (ckpt.has_runtime_state()) restore_runtime_state(ckpt.runtime_state);
}

FederatedSearch::RecoveryReport FederatedSearch::recover(
    const RecoverConfig& rc) {
  Stopwatch timer;
  RecoveryReport report;
  const bool telemetry = obs::telemetry_enabled();

  // 1. Newest valid checkpoint, falling back to the retained `.prev`
  // generation when the primary fails CRC or parse. No checkpoint at all
  // means the crash happened before the first auto-checkpoint: recovery
  // replays from round 0 (the constructor state is the round-0 state).
  std::error_code ec;
  if (std::filesystem::exists(rc.checkpoint_path, ec) ||
      std::filesystem::exists(rc.checkpoint_path + ".prev", ec)) {
    const CheckpointLoad load =
        read_checkpoint_file_with_fallback(rc.checkpoint_path);
    restore(load.ckpt);
    report.checkpoint_loaded = true;
    report.used_prev_checkpoint = load.used_prev;
    if (load.used_prev) {
      if (telemetry) {
        obs::Telemetry::instance()
            .registry()
            .counter("fms.checkpoints.prev_fallback")
            .add(1);
      }
      if (obs::tracing_enabled()) {
        obs::TraceContext::instance().dump_flight("checkpoint_prev_fallback");
      }
    }
  }
  report.start_round = round_counter_;

  // 2. Journal frames from both generations: `.prev` covers the previous
  // checkpoint generation, the live file covers the current one. Frames
  // at rounds the checkpoint already contains are stale — drop them.
  const RoundJournal::LoadResult prev =
      RoundJournal::load(rc.journal_path + ".prev");
  const RoundJournal::LoadResult live = RoundJournal::load(rc.journal_path);
  FMS_CHECK_MSG(live.header_valid,
                "journal header is corrupt: " << rc.journal_path);
  std::map<int, JournalFrame> frames;
  for (const auto* lr : {&prev, &live}) {
    for (const JournalFrame& f : lr->frames) {
      if (f.round >= round_counter_) frames[f.round] = f;
    }
  }
  report.frames_loaded = frames.size();

  // 3. Torn-tail rule: a frame that is short or fails CRC — and anything
  // after it — never happened. Truncate it off so the resumed journal
  // appends after the last good frame.
  if (live.torn_bytes > 0) {
    RoundJournal::truncate_to(rc.journal_path, live.valid_bytes);
    report.torn_bytes = live.torn_bytes;
    if (telemetry) {
      auto& reg = obs::Telemetry::instance().registry();
      reg.counter("fms.journal.frames_truncated").add(1);
      reg.counter("fms.journal.torn_bytes")
          .add(static_cast<std::uint64_t>(live.torn_bytes));
    }
    if (obs::tracing_enabled()) {
      obs::TraceContext::instance().dump_flight("journal_torn_tail");
    }
  }

  // 4. Deterministic replay: re-execute every round past the checkpoint
  // up to the newest journaled round, verifying each re-executed round
  // against its frame when one survived. Replay is gap-tolerant — a
  // round whose frame was lost to a short write is re-executed all the
  // same (determinism comes from the restored state, not the frames); it
  // just cannot be cross-checked. The phase boundary comes from the
  // caller's warmup_rounds, not the frames, so a journal losing its
  // warmup frames still replays correctly.
  if (!frames.empty()) {
    const int last = frames.rbegin()->first;
    const SearchOptions warmup = warmup_options();
    while (round_counter_ <= last) {
      const int t = round_counter_;
      const std::uint8_t phase = t < rc.warmup_rounds ? 0 : 1;
      const RoundRecord rec =
          run_round(round_counter_++, phase == 0 ? warmup : rc.search);
      ++report.replayed_rounds;
      const auto it = frames.find(t);
      if (it == frames.end()) continue;
      const JournalFrame& f = it->second;
      FMS_CHECK_MSG(f.phase == phase, "journal replay diverged at round "
                                          << t << ": phase mismatch");
      ByteWriter replayed;
      ByteWriter journaled;
      rec.canonical().serialize(replayed);
      f.record.serialize(journaled);
      FMS_CHECK_MSG(replayed.bytes() == journaled.bytes(),
                    "journal replay diverged at round "
                        << t << ": round record mismatch");
      FMS_CHECK_MSG(rng_.save_state() == f.rng_cursor,
                    "journal replay diverged at round " << t
                                                        << ": rng cursor");
      FMS_CHECK_MSG(staleness_rng_.save_state() == f.staleness_cursor,
                    "journal replay diverged at round "
                        << t << ": staleness cursor");
      FMS_CHECK_MSG(static_cast<int>(degrade_.mode()) == f.degrade_mode &&
                        degrade_.transitions() == f.degrade_transitions,
                    "journal replay diverged at round "
                        << t << ": degradation ladder");
    }
  }

  report.recovery_ms = timer.elapsed_seconds() * 1000.0;
  if (telemetry) {
    auto& reg = obs::Telemetry::instance().registry();
    if (report.replayed_rounds > 0) {
      reg.counter("fms.journal.frames_replayed")
          .add(static_cast<std::uint64_t>(report.replayed_rounds));
    }
    reg.gauge("fms.journal.recovery_ms").set(report.recovery_ms);
  }

  // Resume journaling where the crashed run left off: new frames append
  // after the (possibly truncated) tail.
  enable_journal(rc.journal_path, rc.search.fault_plan);
  return report;
}

std::vector<std::uint8_t> FederatedSearch::serialize_runtime_state() const {
  ByteWriter w;
  w.write(kRuntimeMagic);
  w.write(round_counter_);
  w.write(static_cast<std::uint64_t>(total_bytes_down_));
  w.write(static_cast<std::uint64_t>(total_bytes_up_));
  w.write(static_cast<std::uint64_t>(submodel_bytes_sum_));
  w.write(static_cast<std::uint64_t>(submodel_count_));
  // Fault ledger, so resumed campaigns keep the accounting invariant exact.
  w.write(fault_stats_);
  // Robustness ledger, so a resumed run's CLI summary matches an
  // uninterrupted one.
  w.write(robust_stats_);
  // Every RNG stream: the server's two, each participant's, each trace's.
  w.write_string(rng_.save_state());
  w.write_string(staleness_rng_.save_state());
  w.write(static_cast<std::uint32_t>(participants_.size()));
  for (const auto& p : participants_) {
    w.write_string(p->rng_state());
    // Mid-epoch batch iteration state.
    w.write_vector(p->shard().epoch_order());
    w.write(static_cast<std::uint64_t>(p->shard().epoch_cursor()));
  }
  w.write(static_cast<std::uint32_t>(traces_.size()));
  for (const auto& tr : traces_) {
    w.write_string(tr.rng_state());
    w.write(tr.state_mbps());  // AR(1) filter state
  }
  // Optimizer momentum (empty means no step has been taken yet).
  const auto& vel = theta_opt_.velocity();
  w.write(static_cast<std::uint32_t>(vel.size()));
  for (const auto& v : vel) w.write_vector(v);
  // Moving-average window. The rolling sum and rebuild phase carry
  // float-rounding state, so they are persisted verbatim rather than
  // recomputed — recomputation would diverge from an uninterrupted run.
  const std::deque<double>& mv = moving_.values();
  w.write_vector(std::vector<double>(mv.begin(), mv.end()));
  w.write(moving_.raw_sum());
  w.write(static_cast<std::uint64_t>(moving_.rebuild_counter()));
  // Delay-compensation memory pool snapshots.
  w.write(static_cast<std::uint32_t>(pool_.snapshots().size()));
  for (const auto& [round, snap] : pool_.snapshots()) {
    w.write(round);
    w.write_vector(snap.theta);
    w.write_vector(snap.alpha.flatten());
    w.write(static_cast<std::uint32_t>(snap.masks.size()));
    for (const Mask& m : snap.masks) {
      w.write_vector(m.normal);
      w.write_vector(m.reduce);
    }
  }
  // In-flight (not yet arrived) updates.
  w.write(static_cast<std::uint32_t>(arrivals_.size()));
  for (const auto& [round, updates] : arrivals_) {
    w.write(round);
    w.write(static_cast<std::uint32_t>(updates.size()));
    for (const UpdateMsg& u : updates) w.write_vector(u.serialize());
  }
  // Churn layer (FMS4): membership history, the adaptive-deadline window,
  // and the degradation ladder — so a resumed search replays the exact
  // membership deltas, deadlines, and mode transitions.
  registry_.serialize(w);
  deadline_est_.serialize(w);
  degrade_.serialize(w);
  return w.take();
}

void FederatedSearch::restore_runtime_state(
    const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  FMS_CHECK_MSG(r.read<std::uint32_t>() == kRuntimeMagic,
                "corrupt runtime state (bad magic)");
  round_counter_ = r.read<int>();
  total_bytes_down_ = static_cast<std::size_t>(r.read<std::uint64_t>());
  total_bytes_up_ = static_cast<std::size_t>(r.read<std::uint64_t>());
  submodel_bytes_sum_ = static_cast<std::size_t>(r.read<std::uint64_t>());
  submodel_count_ = static_cast<std::size_t>(r.read<std::uint64_t>());
  fault_stats_ = r.read<FaultStats>();
  robust_stats_ = r.read<RobustStats>();
  rng_.load_state(r.read_string());
  staleness_rng_.load_state(r.read_string());
  const auto np = r.read<std::uint32_t>();
  FMS_CHECK_MSG(np == participants_.size(),
                "checkpoint has " << np << " participants, search has "
                                  << participants_.size());
  for (auto& p : participants_) {
    p->set_rng_state(r.read_string());
    std::vector<int> order = r.read_vector<int>();
    const auto cursor = r.read<std::uint64_t>();
    p->shard().restore_epoch(std::move(order),
                             static_cast<std::size_t>(cursor));
  }
  const auto nt = r.read<std::uint32_t>();
  FMS_CHECK_MSG(nt == traces_.size(), "checkpoint trace count mismatch");
  for (auto& tr : traces_) {
    tr.set_rng_state(r.read_string());
    tr.set_state_mbps(r.read<double>());
  }
  const auto nv = r.read<std::uint32_t>();
  std::vector<std::vector<float>> vel(nv);
  for (auto& v : vel) v = r.read_vector<float>();
  FMS_CHECK_MSG(vel.empty() || vel.size() == supernet_->params().size(),
                "optimizer state tensor count mismatch");
  theta_opt_.set_velocity(std::move(vel));
  const std::vector<double> window_vals = r.read_vector<double>();
  const double window_sum = r.read<double>();
  const auto window_rebuild = r.read<std::uint64_t>();
  moving_.restore(std::deque<double>(window_vals.begin(), window_vals.end()),
                  window_sum, static_cast<std::size_t>(window_rebuild));
  std::map<int, RoundSnapshot> snaps;
  const auto ns = r.read<std::uint32_t>();
  for (std::uint32_t s = 0; s < ns; ++s) {
    const int round = r.read<int>();
    RoundSnapshot snap;
    snap.theta = r.read_vector<float>();
    FMS_CHECK_MSG(snap.theta.size() == supernet_->param_count(),
                  "pool snapshot theta shape mismatch");
    snap.alpha =
        AlphaPair::unflatten(r.read_vector<float>(), policy_.num_edges());
    const auto nm = r.read<std::uint32_t>();
    for (std::uint32_t j = 0; j < nm; ++j) {
      Mask m;
      m.normal = r.read_vector<int>();
      m.reduce = r.read_vector<int>();
      snap.masks.push_back(std::move(m));
    }
    snaps.emplace(round, std::move(snap));
  }
  pool_.restore(std::move(snaps));
  arrivals_.clear();
  const auto na = r.read<std::uint32_t>();
  for (std::uint32_t a = 0; a < na; ++a) {
    const int round = r.read<int>();
    const auto nu = r.read<std::uint32_t>();
    auto& updates = arrivals_[round];
    for (std::uint32_t u = 0; u < nu; ++u) {
      updates.push_back(UpdateMsg::deserialize(r.read_vector<std::uint8_t>()));
    }
  }
  registry_.restore(r);
  deadline_est_.restore(r);
  degrade_.restore(r);
  FMS_CHECK_MSG(r.exhausted(), "trailing bytes in runtime state");
}

Genotype FederatedSearch::derive() const {
  return policy_.derive_genotype(cfg_.supernet.num_nodes);
}

double FederatedSearch::avg_submodel_bytes() const {
  return submodel_count_ == 0
             ? 0.0
             : static_cast<double>(submodel_bytes_sum_) /
                   static_cast<double>(submodel_count_);
}

}  // namespace fms
