// Experiment configuration mirroring Table I of the paper, plus the
// substrate-scale knobs this reproduction adds (image size, channel count,
// number of cells) so the same pipeline runs on a small multi-core CPU.
#pragma once

#include <cstdint>
#include <string>

namespace fms {

// Hyperparameters for the supernet weights theta (paper Table I).
struct ThetaOptConfig {
  float learning_rate = 0.025F;
  float momentum = 0.9F;
  float weight_decay = 0.0003F;
  float gradient_clip = 5.0F;
};

// Hyperparameters for the architecture parameters alpha (paper Table I).
struct AlphaOptConfig {
  float learning_rate = 0.003F;
  float weight_decay = 0.0001F;
  float gradient_clip = 5.0F;
  float baseline_decay = 0.99F;  // beta in Eq. 9
};

// Hyperparameters for phase P3 retraining (paper Table I has separate
// centralized and federated settings).
struct RetrainConfig {
  // centralized P3
  float lr_centralized = 0.025F;
  float momentum_centralized = 0.9F;
  float weight_decay_centralized = 0.0003F;
  float clip_centralized = 5.0F;
  // federated P3
  float lr_federated = 0.1F;
  float momentum_federated = 0.5F;
  float weight_decay_federated = 0.005F;
  float clip_federated = 5.0F;
};

// Search-space / model-scale parameters. Paper values in comments; the
// defaults are the CPU-substrate scale used by tests and benches.
struct SupernetConfig {
  int num_cells = 4;        // paper: 8 searched / 20 evaluated (16 for SVHN)
  int num_nodes = 3;        // intermediate nodes per cell (paper/DARTS: 4)
  int stem_channels = 8;    // paper: 16 searched / 36 evaluated
  int num_classes = 10;
  int image_size = 16;      // paper: 32 (CIFAR/SVHN)
  int image_channels = 3;
};

// End-to-end pipeline schedule. Paper values in comments.
struct ScheduleConfig {
  int batch_size = 64;        // paper: 256
  int num_participants = 10;  // paper Table I: K = 10
  int warmup_steps = 60;      // paper: 10000
  int search_steps = 120;     // paper: 6000 (10000 on non-iid CIFAR10)
  int retrain_epochs = 6;     // paper: 600
  int fl_train_steps = 120;   // paper: 6000
};

// Augmentation settings (paper Table I).
struct AugmentConfig {
  int cutout = 4;            // paper: 16 (on 32x32); scaled to 16x16 images
  int random_clip = 2;       // paper: 4 — pad-and-random-crop margin
  float horizontal_flip_p = 0.5F;
};

// Telemetry sink selection (src/obs). Disabled by default: the search hot
// path then pays only a relaxed atomic load per instrumentation site.
struct TelemetryConfig {
  bool enabled = false;
  std::string trace_jsonl_path;  // per-round + per-span JSONL events
  std::string metrics_csv_path;  // registry snapshot written at end of run
  bool console = false;          // per-round progress one-liner
  int console_every = 25;        // console line cadence in rounds
  // The one instrumentation flag: FMS_OP zones with their CPU time, op
  // cost (FLOP/byte work ledger, src/obs/work) and tensor allocations
  // (src/obs/profile, src/obs/alloc.h). Off by default: an op is one
  // relaxed atomic load and its cost expression is never evaluated; search
  // output is bit-identical either way.
  bool profile = false;
  // Causal round tracing (src/obs/trace_ctx): a non-empty path exports the
  // per-participant lifecycle as Chrome trace-event JSON (sim-time ticks;
  // load at ui.perfetto.dev). Bit-identical on/off, like the profiler.
  std::string trace_chrome_path;
  // Online search-health monitor (src/obs/health): windowed OK/WARN/CRIT
  // detectors over the round stream. A non-empty report path implies
  // health and writes health.json at the end of the run.
  bool health = false;
  std::string health_report_path;
  // Crash flight recorder (src/obs/flight): > 0 keeps the last N lifecycle
  // events per participant and dumps them to flight_dump_path on crash,
  // quorum failure, or any health CRIT transition.
  int flight_recorder = 0;
  std::string flight_dump_path;
};

struct SearchConfig {
  ThetaOptConfig theta;
  AlphaOptConfig alpha;
  RetrainConfig retrain;
  SupernetConfig supernet;
  ScheduleConfig schedule;
  AugmentConfig augment;
  TelemetryConfig telemetry;
  std::uint64_t seed = 42;
  // Worker threads for the train stage of a round (participants train in
  // parallel); 0 = hardware concurrency. Capped at the participant count.
  // Results are bit-identical for every value, so it is a runtime knob,
  // not part of any checkpoint or journal.
  int threads = 0;
};

// Returns a config scaled by the FMS_SCALE environment variable (>=1
// lengthens schedules toward the paper's values); scale 1 is the fast
// CPU default.
SearchConfig default_config();
double env_scale();

}  // namespace fms
