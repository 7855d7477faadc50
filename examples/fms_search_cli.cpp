// Command-line front end for the federated model search — the entry point
// a downstream user would script against.
//
// Usage:
//   fms_search_cli [--participants N] [--rounds N] [--warmup N]
//                  [--noniid] [--staleness none|severe|slight]
//                  [--policy compensate|use|throw]
//                  [--checkpoint PATH] [--genotype-out PATH] [--seed N]
//                  [--trace-jsonl PATH] [--metrics-csv PATH] [--threads N]
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>

#include "src/core/checkpoint.h"
#include "src/core/retrain.h"
#include "src/core/search.h"
#include "src/data/synth.h"
#include "src/nas/discrete_net.h"
#include "src/nas/dot_export.h"
#include "src/obs/alloc.h"
#include "src/obs/health.h"
#include "src/obs/profile.h"
#include "src/obs/report.h"
#include "src/obs/roofline.h"
#include "src/obs/telemetry.h"
#include "src/obs/work.h"

namespace {

const char* kUsage =
    "usage: fms_search_cli [--participants N] [--rounds N] [--warmup N]\n"
    "                      [--noniid] [--staleness none|severe|slight]\n"
    "                      [--policy compensate|use|throw]\n"
    "                      [--checkpoint PATH] [--genotype-out PATH]\n"
    "                      [--dot-out PATH] [--seed N] [--threads N]\n"
    "                      [--trace-jsonl PATH] [--metrics-csv PATH]\n"
    "                      [--progress-every N] [--profile]\n"
    "                      [--fault-plan SPEC|severe] [--quorum Q]\n"
    "                      [--timeout SECONDS] [--checkpoint-every N]\n"
    "                      [--resume PATH] [--journal PATH] [--recover]\n"
    "                      [--aggregator NAME[:F]]\n"
    "                      [--winsorize-rewards K] [--baseline-mode MODE]\n"
    "                      [--adaptive-screen K] [--churn-plan SPEC]\n"
    "                      [--adaptive-timeout] [--max-degrade-mode N]\n"
    "\n"
    "  --threads N           worker threads that train a round's participants\n"
    "                        in parallel (0 = all cores, the default; capped\n"
    "                        at --participants). Results are bit-identical\n"
    "                        for every N\n"
    "\n"
    "fault flags:\n"
    "  --fault-plan SPEC     comma 'key=value' fault schedule (or 'severe'),\n"
    "                        e.g. crash=0.3,corrupt=0.1,divergent=0.2,link=0.1\n"
    "                        Byzantine keys: sign_flip, sign_flip_lambda,\n"
    "                        grad_scale, grad_scale_lambda, collude,\n"
    "                        collude_scale, reward_attack, reward_attack_delta\n"
    "  --quorum Q            commit a round once ceil(Q*K) updates arrive\n"
    "  --timeout SECONDS     per-round commit deadline cap (0 = none)\n"
    "  --checkpoint-every N  auto-checkpoint cadence; requires --checkpoint\n"
    "  --resume PATH         restore a checkpoint and continue the search\n"
    "\n"
    "durability flags:\n"
    "  --journal PATH        write-ahead round journal: one CRC-framed\n"
    "                        frame per committed round; makes any kill\n"
    "                        point recoverable (disk fault-plan keys:\n"
    "                        disk_eio, disk_short, disk_corrupt,\n"
    "                        disk_corrupt_bits)\n"
    "  --recover             kill-anywhere recovery: load the newest valid\n"
    "                        checkpoint (.prev fallback), truncate a torn\n"
    "                        journal tail, replay journaled rounds, then\n"
    "                        continue; requires --journal and --checkpoint\n"
    "\n"
    "observability flags:\n"
    "  --profile             enable the in-process profiler (zone times, op\n"
    "                        work and allocation ledgers); prints the\n"
    "                        merged self-time table and\n"
    "                        allocation totals after the run (adds per-zone\n"
    "                        \"profile\" events to --trace-jsonl). Off by\n"
    "                        default: results are bit-identical either way\n"
    "  --trace-chrome PATH   export the per-participant round lifecycle as\n"
    "                        Chrome trace-event JSON (sim-time ticks; load\n"
    "                        at ui.perfetto.dev). '=PATH' form also accepted\n"
    "  --health-report PATH  write the search-health monitor's machine-\n"
    "                        readable health.json at the end of the run\n"
    "  --flight-recorder N   keep the last N lifecycle events per\n"
    "                        participant; dumped to --flight-dump on crash,\n"
    "                        quorum failure, or any health CRIT transition\n"
    "  --flight-dump PATH    flight-recorder dump target\n"
    "                        (default fms_flight.jsonl)\n"
    "  --report PATH         write a self-contained HTML run report; forces\n"
    "                        --profile, defaults\n"
    "                        --trace-jsonl/--metrics-csv/--health-report to\n"
    "                        PATH-derived sidecars when unset, and prints a\n"
    "                        roofline summary line (bit-identical search)\n"
    "  --peak-cache PATH     machine-peak calibration sidecar used by\n"
    "                        --report (default fms_peak.json); calibrated\n"
    "                        once and reused across runs\n"
    "\n"
    "robustness flags:\n"
    "  --aggregator SPEC     theta gradient estimator: mean (default),\n"
    "                        clipped_mean[:K], coordinate_median,\n"
    "                        trimmed_mean[:F], krum[:F], multi_krum[:F]\n"
    "  --winsorize-rewards K clamp rewards to [Q1-K*IQR, Q3+K*IQR] per round\n"
    "                        before the alpha update (0 = off; 1.5 = Tukey)\n"
    "  --baseline-mode MODE  REINFORCE baseline statistic: mean|median\n"
    "  --adaptive-screen K   tighten the screening norm bound to\n"
    "                        median + K*MAD of the round's arrivals\n"
    "\n"
    "churn flags:\n"
    "  --churn-plan SPEC     comma 'key=value' membership schedule, e.g.\n"
    "                        leave=0.06,away_min=2,away_max=6,burst=0.5,\n"
    "                        burst_round=20,burst_away=10,late_join=0.2,\n"
    "                        diurnal=0.5,diurnal_period=48,seed=N\n"
    "  --adaptive-timeout    replace the static --timeout cap with a\n"
    "                        windowed p90 of recent round times (x1.5 slack)\n"
    "                        once the estimator is warm\n"
    "  --max-degrade-mode N  arm the graceful-degradation ladder down to\n"
    "                        mode N: 1 relax deadline, 2 shrink cohort,\n"
    "                        3 partial-quorum commit (0 = off, default)\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace fms;
  int participants = 10;
  int rounds = 150;
  int warmup = 100;
  bool noniid = false;
  std::string staleness = "none";
  std::string policy_name = "compensate";
  std::string checkpoint_path;
  std::string genotype_out;
  std::string dot_out;
  std::string trace_jsonl;
  std::string metrics_csv;
  int progress_every = 25;
  bool profile = false;
  std::string trace_chrome;
  std::string health_report;
  int flight_recorder = 0;
  std::string flight_dump;
  std::string report_path;
  std::string peak_cache = "fms_peak.json";
  std::uint64_t seed = 42;
  std::string fault_plan_spec;
  double quorum = 1.0;
  double timeout_s = 0.0;
  int checkpoint_every = 0;
  std::string resume_path;
  std::string journal_path;
  bool recover = false;
  std::string aggregator_spec;
  double winsorize_k = 0.0;
  std::string baseline_mode = "mean";
  double adaptive_screen_k = 0.0;
  std::string churn_plan_spec;
  bool adaptive_timeout = false;
  int max_degrade_mode = 0;
  int threads = 0;

  for (int i = 1; i < argc; ++i) {
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n%s", flag, kUsage);
        std::exit(2);
      }
      return argv[++i];
    };
    // "--flag=VALUE" form (the scripting-friendly spelling; the
    // space-separated form works for every flag as well).
    auto eq_value = [&](const char* flag) -> const char* {
      const std::size_t n = std::strlen(flag);
      if (!std::strncmp(argv[i], flag, n) && argv[i][n] == '=') {
        return argv[i] + n + 1;
      }
      return nullptr;
    };
    if (!std::strcmp(argv[i], "--participants")) {
      participants = std::atoi(need_value("--participants"));
    } else if (!std::strcmp(argv[i], "--rounds")) {
      rounds = std::atoi(need_value("--rounds"));
    } else if (!std::strcmp(argv[i], "--warmup")) {
      warmup = std::atoi(need_value("--warmup"));
    } else if (!std::strcmp(argv[i], "--noniid")) {
      noniid = true;
    } else if (!std::strcmp(argv[i], "--staleness")) {
      staleness = need_value("--staleness");
    } else if (!std::strcmp(argv[i], "--policy")) {
      policy_name = need_value("--policy");
    } else if (!std::strcmp(argv[i], "--checkpoint")) {
      checkpoint_path = need_value("--checkpoint");
    } else if (!std::strcmp(argv[i], "--genotype-out")) {
      genotype_out = need_value("--genotype-out");
    } else if (!std::strcmp(argv[i], "--dot-out")) {
      dot_out = need_value("--dot-out");
    } else if (!std::strcmp(argv[i], "--trace-jsonl")) {
      trace_jsonl = need_value("--trace-jsonl");
    } else if (!std::strcmp(argv[i], "--metrics-csv")) {
      metrics_csv = need_value("--metrics-csv");
    } else if (!std::strcmp(argv[i], "--progress-every")) {
      progress_every = std::atoi(need_value("--progress-every"));
    } else if (!std::strcmp(argv[i], "--profile")) {
      profile = true;
    } else if (!std::strcmp(argv[i], "--trace-chrome")) {
      trace_chrome = need_value("--trace-chrome");
    } else if (const char* v1 = eq_value("--trace-chrome")) {
      trace_chrome = v1;
    } else if (!std::strcmp(argv[i], "--health-report")) {
      health_report = need_value("--health-report");
    } else if (const char* v2 = eq_value("--health-report")) {
      health_report = v2;
    } else if (!std::strcmp(argv[i], "--flight-recorder")) {
      flight_recorder = std::atoi(need_value("--flight-recorder"));
    } else if (const char* v3 = eq_value("--flight-recorder")) {
      flight_recorder = std::atoi(v3);
    } else if (!std::strcmp(argv[i], "--flight-dump")) {
      flight_dump = need_value("--flight-dump");
    } else if (const char* v4 = eq_value("--flight-dump")) {
      flight_dump = v4;
    } else if (!std::strcmp(argv[i], "--report")) {
      report_path = need_value("--report");
    } else if (const char* v8 = eq_value("--report")) {
      report_path = v8;
    } else if (!std::strcmp(argv[i], "--peak-cache")) {
      peak_cache = need_value("--peak-cache");
    } else if (const char* v9 = eq_value("--peak-cache")) {
      peak_cache = v9;
    } else if (!std::strcmp(argv[i], "--threads")) {
      threads = std::atoi(need_value("--threads"));
    } else if (!std::strcmp(argv[i], "--seed")) {
      seed = static_cast<std::uint64_t>(std::atoll(need_value("--seed")));
    } else if (!std::strcmp(argv[i], "--fault-plan")) {
      fault_plan_spec = need_value("--fault-plan");
    } else if (!std::strcmp(argv[i], "--quorum")) {
      quorum = std::atof(need_value("--quorum"));
    } else if (!std::strcmp(argv[i], "--timeout")) {
      timeout_s = std::atof(need_value("--timeout"));
    } else if (!std::strcmp(argv[i], "--checkpoint-every")) {
      checkpoint_every = std::atoi(need_value("--checkpoint-every"));
    } else if (!std::strcmp(argv[i], "--resume")) {
      resume_path = need_value("--resume");
    } else if (!std::strcmp(argv[i], "--journal")) {
      journal_path = need_value("--journal");
    } else if (const char* v7 = eq_value("--journal")) {
      journal_path = v7;
    } else if (!std::strcmp(argv[i], "--recover")) {
      recover = true;
    } else if (!std::strcmp(argv[i], "--aggregator")) {
      aggregator_spec = need_value("--aggregator");
    } else if (!std::strcmp(argv[i], "--winsorize-rewards")) {
      winsorize_k = std::atof(need_value("--winsorize-rewards"));
    } else if (!std::strcmp(argv[i], "--baseline-mode")) {
      baseline_mode = need_value("--baseline-mode");
    } else if (!std::strcmp(argv[i], "--adaptive-screen")) {
      adaptive_screen_k = std::atof(need_value("--adaptive-screen"));
    } else if (!std::strcmp(argv[i], "--churn-plan")) {
      churn_plan_spec = need_value("--churn-plan");
    } else if (const char* v5 = eq_value("--churn-plan")) {
      churn_plan_spec = v5;
    } else if (!std::strcmp(argv[i], "--adaptive-timeout")) {
      adaptive_timeout = true;
    } else if (!std::strcmp(argv[i], "--max-degrade-mode")) {
      max_degrade_mode = std::atoi(need_value("--max-degrade-mode"));
    } else if (const char* v6 = eq_value("--max-degrade-mode")) {
      max_degrade_mode = std::atoi(v6);
    } else if (!std::strcmp(argv[i], "--help") || !std::strcmp(argv[i], "-h")) {
      std::printf("%s", kUsage);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag %s\n%s", argv[i], kUsage);
      return 2;
    }
  }
  if (participants < 1 || rounds < 0 || warmup < 0 || quorum <= 0.0 ||
      quorum > 1.0 || timeout_s < 0.0 || checkpoint_every < 0 ||
      winsorize_k < 0.0 || adaptive_screen_k < 0.0 || flight_recorder < 0 ||
      max_degrade_mode < 0 || max_degrade_mode > 3 || threads < 0 ||
      (baseline_mode != "mean" && baseline_mode != "median")) {
    std::fprintf(stderr, "invalid arguments\n%s", kUsage);
    return 2;
  }
  if (checkpoint_every > 0 && checkpoint_path.empty()) {
    std::fprintf(stderr, "--checkpoint-every requires --checkpoint PATH\n%s",
                 kUsage);
    return 2;
  }
  if (recover && (journal_path.empty() || checkpoint_path.empty())) {
    std::fprintf(stderr,
                 "--recover requires --journal PATH and --checkpoint PATH\n%s",
                 kUsage);
    return 2;
  }
  // --report needs profiling on (zone times, op work, allocations) and the
  // run's artifacts on disk; derive sidecar paths for any the user didn't
  // name. Profiling observes only — the search trajectory stays
  // bit-identical.
  if (!report_path.empty()) {
    profile = true;
    if (trace_jsonl.empty()) trace_jsonl = report_path + ".trace.jsonl";
    if (metrics_csv.empty()) metrics_csv = report_path + ".metrics.csv";
    if (health_report.empty()) health_report = report_path + ".health.json";
  }

  Rng rng(seed);
  SynthSpec spec;
  spec.train_size = 1200;
  spec.test_size = 300;
  spec.image_size = 8;
  TrainTest data = make_synth_c10(spec, rng);
  auto partition =
      noniid ? dirichlet_partition(data.train.labels(), 10, participants, 0.5,
                                   rng)
             : iid_partition(data.train.size(), participants, rng);

  SearchConfig cfg = default_config();
  cfg.supernet.num_cells = 3;
  cfg.supernet.num_nodes = 2;
  cfg.supernet.stem_channels = 6;
  cfg.supernet.image_size = 8;
  cfg.schedule.batch_size = 16;
  cfg.schedule.num_participants = participants;
  cfg.seed = seed;
  cfg.threads = threads;
  // Telemetry: console progress always on (replacing the old on_round
  // lambda); JSONL trace and metrics CSV snapshot when requested.
  cfg.telemetry.enabled = true;
  cfg.telemetry.console = true;
  cfg.telemetry.console_every = progress_every;
  cfg.telemetry.trace_jsonl_path = trace_jsonl;
  cfg.telemetry.metrics_csv_path = metrics_csv;
  cfg.telemetry.profile = profile;
  cfg.telemetry.trace_chrome_path = trace_chrome;
  // The health monitor is always on in the CLI: it only observes the
  // round stream (bit-identical results) and the exit summary below is
  // the operator's first stop when a campaign misbehaves.
  cfg.telemetry.health = true;
  cfg.telemetry.health_report_path = health_report;
  cfg.telemetry.flight_recorder = flight_recorder;
  cfg.telemetry.flight_dump_path = flight_dump;

  SearchOptions opts;
  if (staleness == "severe") {
    opts.staleness = StalenessDistribution::severe();
  } else if (staleness == "slight") {
    opts.staleness = StalenessDistribution::slight();
  } else if (staleness != "none") {
    std::fprintf(stderr, "unknown staleness '%s'\n%s", staleness.c_str(),
                 kUsage);
    return 2;
  }
  if (staleness != "none") {
    if (policy_name == "compensate") {
      opts.stale_policy = StalePolicy::kCompensate;
    } else if (policy_name == "use") {
      opts.stale_policy = StalePolicy::kUseStale;
    } else if (policy_name == "throw") {
      opts.stale_policy = StalePolicy::kDrop;
    } else {
      std::fprintf(stderr, "unknown policy '%s'\n%s", policy_name.c_str(),
                   kUsage);
      return 2;
    }
  }

  if (!fault_plan_spec.empty()) {
    opts.fault_plan = fault_plan_spec == "severe"
                          ? FaultPlan::severe()
                          : FaultPlan::parse(fault_plan_spec);
  }
  if (!aggregator_spec.empty()) {
    opts.aggregator = agg::AggregatorConfig::parse(aggregator_spec);
  }
  opts.winsorize_rewards_k = winsorize_k;
  if (baseline_mode == "median") {
    opts.baseline_mode = BaselineMode::kMedianReward;
  }
  if (adaptive_screen_k > 0.0) {
    opts.adaptive_screen = true;
    opts.adaptive_screen_k = adaptive_screen_k;
  }
  if (!churn_plan_spec.empty()) {
    opts.churn_plan = ChurnPlan::parse(churn_plan_spec);
  }
  opts.adaptive_timeout.enabled = adaptive_timeout;
  opts.degrade.max_mode = max_degrade_mode;
  opts.quorum = quorum;
  opts.round_timeout_s = timeout_s;
  opts.checkpoint_every = checkpoint_every;
  if (checkpoint_every > 0) opts.checkpoint_path = checkpoint_path;

  FederatedSearch search(cfg, data.train, partition);
  FederatedSearch::RecoveryReport rrep;
  if (recover) {
    FederatedSearch::RecoverConfig rc;
    rc.checkpoint_path = checkpoint_path;
    rc.journal_path = journal_path;
    rc.warmup_rounds = warmup;
    rc.search = opts;
    rrep = search.recover(rc);
    // Credit completed rounds (checkpointed + replayed) against the
    // warm-up first, then the search — same arithmetic as --resume.
    const int done = rrep.start_round + rrep.replayed_rounds;
    const int warmup_left = std::max(0, warmup - done);
    const int search_left =
        std::max(0, warmup + rounds - std::max(done, warmup));
    std::printf(
        "recovered: checkpoint %s at round %d%s, replayed %d rounds "
        "(%llu frames, %zu torn bytes truncated) in %.1f ms\n",
        rrep.checkpoint_loaded ? "loaded" : "absent", rrep.start_round,
        rrep.used_prev_checkpoint ? " (.prev fallback)" : "",
        rrep.replayed_rounds,
        static_cast<unsigned long long>(rrep.frames_loaded), rrep.torn_bytes,
        rrep.recovery_ms);
    warmup = warmup_left;
    rounds = search_left;
  } else if (!resume_path.empty()) {
    const SearchCheckpoint ckpt = read_checkpoint_file(resume_path);
    search.restore(ckpt);
    // Credit completed rounds against the warm-up first, then the search.
    const int done = ckpt.round;
    const int warmup_left = std::max(0, warmup - done);
    const int search_left = std::max(0, warmup + rounds - std::max(done, warmup));
    std::printf("resumed from %s at round %d (%s runtime state)\n",
                resume_path.c_str(), done,
                ckpt.has_runtime_state() ? "with" : "without");
    warmup = warmup_left;
    rounds = search_left;
  }
  if (!journal_path.empty() && !recover) {
    search.enable_journal(journal_path, opts.fault_plan);
  }
  std::printf("warm-up: %d rounds, search: %d rounds, K=%d, %s, "
              "staleness=%s/%s\n",
              warmup, rounds, participants, noniid ? "non-iid" : "iid",
              staleness.c_str(),
              staleness == "none" ? "-" : policy_name.c_str());
  search.run_warmup(warmup);
  search.run_search(rounds, opts);
  if (!opts.fault_plan.empty()) {
    const FaultStats& fs = search.fault_stats();
    std::printf(
        "faults: injected %llu (crash %llu, dropout %llu, link %llu, "
        "uplink %llu, corrupt %llu, divergent %llu) = rejected %llu + "
        "dropped %llu + recovered %llu; retransmits %llu\n",
        static_cast<unsigned long long>(fs.injected_total()),
        static_cast<unsigned long long>(fs.injected_crash),
        static_cast<unsigned long long>(fs.injected_dropout),
        static_cast<unsigned long long>(fs.injected_link),
        static_cast<unsigned long long>(fs.injected_uplink),
        static_cast<unsigned long long>(fs.injected_corrupt),
        static_cast<unsigned long long>(fs.injected_divergent),
        static_cast<unsigned long long>(fs.rejected),
        static_cast<unsigned long long>(fs.dropped),
        static_cast<unsigned long long>(fs.recovered),
        static_cast<unsigned long long>(fs.retransmits));
    if (fs.injected_byzantine() > 0) {
      std::printf(
          "byzantine: %llu attacked updates (sign_flip %llu, grad_scale "
          "%llu, collude %llu, reward %llu)\n",
          static_cast<unsigned long long>(fs.injected_byzantine()),
          static_cast<unsigned long long>(fs.injected_sign_flip),
          static_cast<unsigned long long>(fs.injected_grad_scale),
          static_cast<unsigned long long>(fs.injected_collude),
          static_cast<unsigned long long>(fs.injected_reward));
    }
  }
  // Churn + degradation summary: membership totals and the ladder's path.
  if (!opts.churn_plan.empty() || max_degrade_mode > 0) {
    const ClientRegistry& reg = search.registry();
    std::printf(
        "churn: %llu rejoins, %llu leaves across %d clients; degradation "
        "transitions %d, final mode %s\n",
        static_cast<unsigned long long>(reg.total_joins()),
        static_cast<unsigned long long>(reg.total_leaves()), reg.size(),
        search.degrade_transitions(),
        degrade_mode_name(search.degrade_mode()));
  }
  // Robustness summary: what the defended channels actually removed.
  if (opts.aggregator.kind != agg::AggregatorKind::kMean ||
      opts.winsorize_rewards_k > 0.0 || opts.adaptive_screen) {
    const RobustStats& rs = search.robust_stats();
    std::printf(
        "robustness: aggregator %s; clipped %llu updates (mass %.3g), "
        "trimmed %llu values, rejected %llu updates, winsorized %llu "
        "rewards\n",
        opts.aggregator.to_string().c_str(),
        static_cast<unsigned long long>(rs.clipped_updates), rs.clipped_mass,
        static_cast<unsigned long long>(rs.trimmed_values),
        static_cast<unsigned long long>(rs.rejected_updates),
        static_cast<unsigned long long>(rs.winsorized_rewards));
  }

  // Durability summary: the journal's write ledger, plus what recovery
  // had to do when --recover ran.
  if (search.journal() != nullptr) {
    const JournalStats& js = search.journal()->stats();
    std::printf(
        "journal: %llu frames written, %llu rotations, %llu eio retries, "
        "%llu short writes (%s)\n",
        static_cast<unsigned long long>(js.frames_written),
        static_cast<unsigned long long>(js.rotations),
        static_cast<unsigned long long>(js.eio_retries),
        static_cast<unsigned long long>(js.short_writes),
        search.journal()->path().c_str());
    if (recover) {
      std::printf(
          "recovery: resumed at round %d, replayed %d rounds, %zu torn "
          "bytes truncated, %.1f ms\n",
          rrep.start_round, rrep.replayed_rounds, rrep.torn_bytes,
          rrep.recovery_ms);
    }
  }

  // Search-health summary: per-detector state, windowed value, thresholds.
  if (search.health() != nullptr) {
    std::printf("\n%s", search.health()->summary_table().c_str());
    if (!health_report.empty()) {
      search.health()->write_report(health_report);
      std::printf("health report written to %s\n", health_report.c_str());
    }
  }

  Genotype genotype = search.derive();
  std::printf("searched: %s\n", genotype.to_string().c_str());
  std::printf("payload: supernet %.1f KB vs avg sub-model %.1f KB\n",
              search.supernet_bytes() / 1024.0,
              search.avg_submodel_bytes() / 1024.0);

  if (!checkpoint_path.empty()) {
    // Full-state checkpoint: a later --resume continues bit-identically.
    write_checkpoint_file(checkpoint_path, search.checkpoint());
    std::printf("checkpoint written to %s\n", checkpoint_path.c_str());
  }
  if (!genotype_out.empty()) {
    write_genotype_file(genotype_out, genotype);
    std::printf("genotype written to %s\n", genotype_out.c_str());
  }
  if (!dot_out.empty()) {
    write_dot_file(dot_out, genotype);
    std::printf("graphviz cell diagram written to %s\n", dot_out.c_str());
  }
  if (profile) {
    const obs::AllocStats alloc = obs::alloc_stats();
    std::printf("\n-- profile: merged self-time table --\n%s",
                obs::self_time_table(obs::collect_profile()).c_str());
    std::printf(
        "alloc: %llu tensor allocations (%.1f MB total), peak live %.1f MB, "
        "peak RSS %.1f MB\n",
        static_cast<unsigned long long>(alloc.allocs),
        static_cast<double>(alloc.total_bytes) / 1048576.0,
        static_cast<double>(alloc.peak_live_bytes) / 1048576.0,
        static_cast<double>(obs::peak_rss_bytes()) / 1048576.0);
  }
  if (!report_path.empty()) {
    // Calibrate (or load the cached) machine peak and set the roofline
    // gauges before finish() so they land in the metrics CSV snapshot.
    const obs::MachinePeak peak = obs::load_or_calibrate(peak_cache);
    obs::emit_roofline_telemetry(peak);
    const obs::WorkReport work = obs::collect_work();
    const obs::WorkRow* top = nullptr;
    for (const obs::WorkRow& row : work.rows) {
      if (top == nullptr || row.cost.flops > top->cost.flops) top = &row;
    }
    if (top != nullptr && top->cost.flops > 0) {
      const double ai = obs::arithmetic_intensity(top->cost);
      const double gf =
          top->incl_ns > 0 ? static_cast<double>(top->cost.flops) /
                                 static_cast<double>(top->incl_ns)
                           : 0.0;
      const double roof = obs::roofline_gflops(peak, ai);
      std::printf(
          "roofline: vector %.2f GF/s scalar %.2f GF/s stream %.2f GB/s; "
          "top %s %.3f GF/s AI %.2f (%.1f%% of roof)\n",
          peak.vector_gflops, peak.scalar_gflops, peak.stream_gbps,
          top->op.c_str(), gf, ai, roof > 0.0 ? 100.0 * gf / roof : 0.0);
    } else {
      std::printf(
          "roofline: vector %.2f GF/s scalar %.2f GF/s stream %.2f GB/s; "
          "no work recorded\n",
          peak.vector_gflops, peak.scalar_gflops, peak.stream_gbps);
    }
  }
  obs::Telemetry::instance().finish();  // flush trace, write metrics CSV
  if (!trace_jsonl.empty()) {
    std::printf("telemetry trace written to %s\n", trace_jsonl.c_str());
  }
  if (!trace_chrome.empty()) {
    std::printf("chrome trace written to %s (load at ui.perfetto.dev)\n",
                trace_chrome.c_str());
  }
  if (!metrics_csv.empty()) {
    std::printf("metrics snapshot written to %s\n", metrics_csv.c_str());
  }
  if (!report_path.empty()) {
    // The sidecars are flushed now; fuse them into the HTML report.
    obs::ReportInputs ri;
    ri.trace_jsonl_path = trace_jsonl;
    ri.metrics_csv_path = metrics_csv;
    ri.health_json_path = health_report;
    ri.peak_json_path = peak_cache;
    obs::write_report_html(ri, report_path);
    std::printf("report written to %s\n", report_path.c_str());
  }
  return 0;
}
