// Tests for the RL controller: softmax sampling, analytic log-prob
// gradient vs finite differences, REINFORCE ascent direction, baseline.
#include <cmath>
#include <limits>

#include "gtest/gtest.h"
#include "src/rl/policy.h"

namespace fms {
namespace {

AlphaOptConfig fast_cfg() {
  AlphaOptConfig cfg;
  cfg.learning_rate = 0.1F;
  cfg.weight_decay = 0.0F;
  cfg.gradient_clip = 100.0F;
  cfg.baseline_decay = 0.5F;
  return cfg;
}

TEST(AlphaPair, ZerosAndArithmetic) {
  AlphaPair a = AlphaPair::zeros(3);
  EXPECT_EQ(a.normal.size(), 3u);
  EXPECT_FLOAT_EQ(a.l2_norm(), 0.0F);
  AlphaPair b = AlphaPair::zeros(3);
  b.normal[0][0] = 3.0F;
  b.reduce[1][2] = 4.0F;
  a.add_scaled(b, 2.0F);
  EXPECT_FLOAT_EQ(a.normal[0][0], 6.0F);
  EXPECT_FLOAT_EQ(a.l2_norm(), 10.0F);
  a.scale(0.5F);
  EXPECT_FLOAT_EQ(a.l2_norm(), 5.0F);
}

TEST(AlphaPair, ClipBoundsNorm) {
  AlphaPair a = AlphaPair::zeros(2);
  a.normal[0][0] = 30.0F;
  a.reduce[0][0] = 40.0F;  // norm 50
  const float pre = a.clip(5.0F);
  EXPECT_FLOAT_EQ(pre, 50.0F);
  EXPECT_NEAR(a.l2_norm(), 5.0F, 1e-3F);
}

TEST(AlphaPair, FlattenRoundTrip) {
  Rng rng(1);
  AlphaPair a = AlphaPair::zeros(4);
  for (auto& row : a.normal)
    for (auto& v : row) v = rng.normal();
  for (auto& row : a.reduce)
    for (auto& v : row) v = rng.normal();
  AlphaPair b = AlphaPair::unflatten(a.flatten(), 4);
  EXPECT_EQ(a.flatten(), b.flatten());
}

TEST(Policy, InitialPolicyIsUniform) {
  ArchPolicy policy(5, fast_cfg());
  Rng rng(2);
  // With alpha = 0 every op has probability 1/8; check empirically.
  std::vector<int> counts(kNumOps, 0);
  const int trials = 4000;
  for (int i = 0; i < trials; ++i) {
    Mask m = policy.sample(rng);
    ++counts[static_cast<std::size_t>(m.normal[0])];
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / trials, 1.0 / kNumOps, 0.03);
  }
}

// A NaN or infinite alpha (an unscreened poisoned update) leaves its row
// without a distribution: that edge draws uniformly, the others sample
// their softmax as before.
TEST(Policy, NonFiniteAlphaRowSamplesUniformly) {
  ArchPolicy policy(2, fast_cfg());
  AlphaPair a = AlphaPair::zeros(2);
  a.normal[0][2] = std::numeric_limits<float>::quiet_NaN();
  a.reduce[1][5] = std::numeric_limits<float>::infinity();
  a.normal[1][3] = 10.0F;
  policy.set_alpha(a);
  Rng rng(5);
  std::vector<int> counts(kNumOps, 0), counts_inf(kNumOps, 0);
  const int trials = 4000;
  int hits = 0;
  for (int i = 0; i < trials; ++i) {
    const Mask m = policy.sample(rng);
    ++counts[static_cast<std::size_t>(m.normal[0])];
    ++counts_inf[static_cast<std::size_t>(m.reduce[1])];
    if (m.normal[1] == 3) ++hits;
  }
  for (int op = 0; op < kNumOps; ++op) {
    EXPECT_NEAR(static_cast<double>(counts[static_cast<std::size_t>(op)]) / trials,
                1.0 / kNumOps, 0.03);
    EXPECT_NEAR(static_cast<double>(counts_inf[static_cast<std::size_t>(op)]) / trials,
                1.0 / kNumOps, 0.03);
  }
  EXPECT_GT(hits, trials * 99 / 100);
}

TEST(Policy, SampleRespectsSkewedAlpha) {
  ArchPolicy policy(2, fast_cfg());
  AlphaPair a = AlphaPair::zeros(2);
  a.normal[0][3] = 10.0F;  // op 3 overwhelmingly likely on edge 0
  policy.set_alpha(a);
  Rng rng(3);
  int hits = 0;
  for (int i = 0; i < 200; ++i) {
    if (policy.sample(rng).normal[0] == 3) ++hits;
  }
  EXPECT_GT(hits, 195);
}

TEST(Policy, LogProbGradMatchesFiniteDifference) {
  // The analytic gradient (Eq. 12) must match d log p / d alpha.
  ArchPolicy policy(2, fast_cfg());
  Rng rng(4);
  AlphaPair a = AlphaPair::zeros(2);
  for (auto& row : a.normal)
    for (auto& v : row) v = rng.normal();
  for (auto& row : a.reduce)
    for (auto& v : row) v = rng.normal();
  policy.set_alpha(a);
  Mask mask = policy.sample(rng);
  AlphaPair grad = policy.log_prob_grad(mask);

  const float eps = 1e-3F;
  for (int e = 0; e < 2; ++e) {
    for (int o = 0; o < kNumOps; ++o) {
      AlphaPair ap = a, am = a;
      ap.normal[static_cast<std::size_t>(e)][static_cast<std::size_t>(o)] += eps;
      am.normal[static_cast<std::size_t>(e)][static_cast<std::size_t>(o)] -= eps;
      ArchPolicy pp(2, fast_cfg()), pm(2, fast_cfg());
      pp.set_alpha(ap);
      pm.set_alpha(am);
      const double fd =
          (pp.log_prob(mask) - pm.log_prob(mask)) / (2.0 * eps);
      EXPECT_NEAR(
          grad.normal[static_cast<std::size_t>(e)][static_cast<std::size_t>(o)],
          fd, 1e-3)
          << "edge " << e << " op " << o;
    }
  }
}

TEST(Policy, LogProbGradRowsSumToZero) {
  // Each row of (delta - p) sums to zero: a REINFORCE invariant that keeps
  // alpha's per-edge mean fixed.
  ArchPolicy policy(3, fast_cfg());
  Rng rng(5);
  AlphaPair a = AlphaPair::zeros(3);
  for (auto& row : a.normal)
    for (auto& v : row) v = rng.normal();
  policy.set_alpha(a);
  Mask mask = policy.sample(rng);
  AlphaPair grad = policy.log_prob_grad(mask);
  for (const auto& row : grad.normal) {
    float sum = 0.0F;
    for (float v : row) sum += v;
    EXPECT_NEAR(sum, 0.0F, 1e-5F);
  }
}

TEST(Policy, BaselineFollowsEq9) {
  AlphaOptConfig cfg = fast_cfg();
  cfg.baseline_decay = 0.25F;
  ArchPolicy policy(1, cfg);
  // First update initializes the EMA to the observation.
  EXPECT_NEAR(policy.update_baseline(0.8), 0.8, 1e-9);
  // b = 0.25*0.4 + 0.75*0.8 = 0.7
  EXPECT_NEAR(policy.update_baseline(0.4), 0.7, 1e-9);
}

TEST(Policy, ReinforceIncreasesProbabilityOfRewardedOp) {
  // Repeatedly rewarding op 2 on every edge must raise its probability —
  // the core REINFORCE behaviour of the whole search.
  ArchPolicy policy(3, fast_cfg());
  Rng rng(6);
  for (int step = 0; step < 200; ++step) {
    Mask m = policy.sample(rng);
    // Reward 1 when edge 0 chose op 2, else 0.
    const double reward = m.normal[0] == 2 ? 1.0 : 0.0;
    const double b = policy.update_baseline(reward);
    AlphaPair g = policy.log_prob_grad(m);
    g.scale(static_cast<float>(reward - b));
    policy.apply_gradient(g);
  }
  const auto p = alpha_softmax(policy.alpha().normal[0]);
  EXPECT_GT(p[2], 0.5F);
}

TEST(Policy, DeriveGenotypeUsesAlpha) {
  ArchPolicy policy(Cell::num_edges(2), fast_cfg());
  AlphaPair a = AlphaPair::zeros(Cell::num_edges(2));
  for (auto& row : a.normal) row[static_cast<std::size_t>(4)] = 8.0F;
  for (auto& row : a.reduce) row[static_cast<std::size_t>(2)] = 8.0F;
  policy.set_alpha(a);
  Genotype g = policy.derive_genotype(2);
  for (const auto& e : g.normal) EXPECT_EQ(e.op, OpType::kSepConv3);
  for (const auto& e : g.reduce) EXPECT_EQ(e.op, OpType::kMaxPool3);
}

TEST(Policy, EntropyIsMaximalAtUniformAndShrinksWhenPeaked) {
  ArchPolicy policy(3, fast_cfg());
  // Zero alpha = uniform softmax over kNumOps: entropy is exactly ln(N)
  // on every edge (normal and reduce).
  const std::vector<double> h = policy.edge_entropies();
  ASSERT_EQ(h.size(), 6u);  // 3 normal + 3 reduce edges
  for (double v : h) EXPECT_NEAR(v, std::log(static_cast<double>(kNumOps)), 1e-6);
  EXPECT_NEAR(policy.mean_entropy(), std::log(static_cast<double>(kNumOps)),
              1e-6);

  // Peaking one edge lowers its entropy and leaves the rest at maximum.
  AlphaPair a = AlphaPair::zeros(3);
  a.normal[0][1] = 12.0F;
  policy.set_alpha(a);
  const std::vector<double> h2 = policy.edge_entropies();
  EXPECT_LT(h2[0], 0.01);
  EXPECT_NEAR(h2[1], std::log(static_cast<double>(kNumOps)), 1e-6);
  EXPECT_LT(policy.mean_entropy(), std::log(static_cast<double>(kNumOps)));
}

TEST(Policy, WeightDecayPullsTowardUniform) {
  AlphaOptConfig cfg = fast_cfg();
  cfg.weight_decay = 0.5F;
  ArchPolicy policy(1, cfg);
  AlphaPair a = AlphaPair::zeros(1);
  a.normal[0][0] = 10.0F;
  policy.set_alpha(a);
  // Zero reward gradient: only decay acts.
  AlphaPair zero = AlphaPair::zeros(1);
  policy.apply_gradient(zero);
  EXPECT_LT(policy.alpha().normal[0][0], 10.0F);
}

}  // namespace
}  // namespace fms
