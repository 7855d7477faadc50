#include "src/rl/policy.h"

#include <algorithm>
#include <cmath>

namespace fms {

AlphaPair AlphaPair::zeros(int num_edges) {
  AlphaPair a;
  a.normal.assign(static_cast<std::size_t>(num_edges), {});
  a.reduce.assign(static_cast<std::size_t>(num_edges), {});
  return a;
}

void AlphaPair::add_scaled(const AlphaPair& other, float scale) {
  FMS_CHECK(normal.size() == other.normal.size() &&
            reduce.size() == other.reduce.size());
  for (std::size_t e = 0; e < normal.size(); ++e) {
    for (int o = 0; o < kNumOps; ++o) {
      normal[e][static_cast<std::size_t>(o)] +=
          scale * other.normal[e][static_cast<std::size_t>(o)];
      reduce[e][static_cast<std::size_t>(o)] +=
          scale * other.reduce[e][static_cast<std::size_t>(o)];
    }
  }
}

void AlphaPair::scale(float s) {
  for (auto& row : normal)
    for (auto& v : row) v *= s;
  for (auto& row : reduce)
    for (auto& v : row) v *= s;
}

float AlphaPair::l2_norm() const {
  double sq = 0.0;
  for (const auto& row : normal)
    for (float v : row) sq += static_cast<double>(v) * v;
  for (const auto& row : reduce)
    for (float v : row) sq += static_cast<double>(v) * v;
  return static_cast<float>(std::sqrt(sq));
}

float AlphaPair::clip(float max_norm) {
  const float norm = l2_norm();
  if (max_norm > 0.0F && norm > max_norm) scale(max_norm / (norm + 1e-12F));
  return norm;
}

std::vector<float> AlphaPair::flatten() const {
  std::vector<float> flat;
  flat.reserve((normal.size() + reduce.size()) * kNumOps);
  for (const auto& row : normal) flat.insert(flat.end(), row.begin(), row.end());
  for (const auto& row : reduce) flat.insert(flat.end(), row.begin(), row.end());
  return flat;
}

AlphaPair AlphaPair::unflatten(const std::vector<float>& flat, int num_edges) {
  FMS_CHECK(flat.size() ==
            static_cast<std::size_t>(2 * num_edges) * kNumOps);
  AlphaPair a = zeros(num_edges);
  std::size_t pos = 0;
  for (auto& row : a.normal)
    for (auto& v : row) v = flat[pos++];
  for (auto& row : a.reduce)
    for (auto& v : row) v = flat[pos++];
  return a;
}

ArchPolicy::ArchPolicy(int num_edges, AlphaOptConfig cfg)
    : num_edges_(num_edges),
      cfg_(cfg),
      alpha_(AlphaPair::zeros(num_edges)),  // uniform policy at start
      baseline_(cfg.baseline_decay) {}

namespace {

// A row poisoned by a non-finite alpha (an unscreened NaN update can
// reach it) has no distribution to sample from; it draws a uniform op.
int sample_edge(const std::array<float, kNumOps>& alpha_row, Rng& rng) {
  const auto p = alpha_softmax(alpha_row);
  std::vector<float> w(p.begin(), p.end());
  double sum = 0.0;
  for (float v : w) sum += v;
  if (!std::isfinite(sum) || !(sum > 0.0)) return rng.randint(0, kNumOps - 1);
  return rng.categorical(w);
}

}  // namespace

Mask ArchPolicy::sample(Rng& rng) const {
  Mask m;
  m.normal.reserve(alpha_.normal.size());
  m.reduce.reserve(alpha_.reduce.size());
  for (const auto& row : alpha_.normal) m.normal.push_back(sample_edge(row, rng));
  for (const auto& row : alpha_.reduce) m.reduce.push_back(sample_edge(row, rng));
  return m;
}

double ArchPolicy::log_prob(const Mask& mask) const {
  FMS_CHECK(mask.normal.size() == alpha_.normal.size() &&
            mask.reduce.size() == alpha_.reduce.size());
  double lp = 0.0;
  for (std::size_t e = 0; e < mask.normal.size(); ++e) {
    const auto p = alpha_softmax(alpha_.normal[e]);
    lp += std::log(std::max(
        p[static_cast<std::size_t>(mask.normal[e])], 1e-12F));
  }
  for (std::size_t e = 0; e < mask.reduce.size(); ++e) {
    const auto p = alpha_softmax(alpha_.reduce[e]);
    lp += std::log(std::max(
        p[static_cast<std::size_t>(mask.reduce[e])], 1e-12F));
  }
  return lp;
}

AlphaPair ArchPolicy::log_prob_grad(const Mask& mask) const {
  return log_prob_grad_at(alpha_, mask);
}

AlphaPair ArchPolicy::log_prob_grad_at(const AlphaPair& alpha,
                                       const Mask& mask) {
  FMS_CHECK(mask.normal.size() == alpha.normal.size() &&
            mask.reduce.size() == alpha.reduce.size());
  AlphaPair g = AlphaPair::zeros(static_cast<int>(alpha.normal.size()));
  // Eq. 12: d log(p_i)/d alpha_j = delta_ij - p_j.
  auto fill = [](const AlphaTable& a, const std::vector<int>& m,
                 AlphaTable& out) {
    for (std::size_t e = 0; e < m.size(); ++e) {
      const auto p = alpha_softmax(a[e]);
      for (int o = 0; o < kNumOps; ++o) {
        out[e][static_cast<std::size_t>(o)] =
            (o == m[e] ? 1.0F : 0.0F) - p[static_cast<std::size_t>(o)];
      }
    }
  };
  fill(alpha.normal, mask.normal, g.normal);
  fill(alpha.reduce, mask.reduce, g.reduce);
  return g;
}

double ArchPolicy::update_baseline(double round_mean_accuracy) {
  return baseline_.update(round_mean_accuracy);
}

double ArchPolicy::update_baseline(const std::vector<double>& round_rewards,
                                   BaselineMode mode) {
  return baseline_.update(round_statistic(round_rewards, mode));
}

double ArchPolicy::round_statistic(const std::vector<double>& rewards,
                                   BaselineMode mode) {
  if (rewards.empty()) return 0.0;
  if (mode == BaselineMode::kMeanReward) return mean_of(rewards);
  std::vector<double> sorted = rewards;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t mid = sorted.size() / 2;
  return sorted.size() % 2 == 1 ? sorted[mid]
                                : (sorted[mid - 1] + sorted[mid]) / 2.0;
}

namespace {

double row_entropy(const std::array<float, kNumOps>& alpha_row) {
  const auto p = alpha_softmax(alpha_row);
  double h = 0.0;
  for (float pi : p) {
    if (pi > 0.0F) h -= static_cast<double>(pi) * std::log(pi);
  }
  return h;
}

}  // namespace

std::vector<double> ArchPolicy::edge_entropies() const {
  std::vector<double> out;
  out.reserve(alpha_.normal.size() + alpha_.reduce.size());
  for (const auto& row : alpha_.normal) out.push_back(row_entropy(row));
  for (const auto& row : alpha_.reduce) out.push_back(row_entropy(row));
  return out;
}

double ArchPolicy::mean_entropy() const {
  const std::vector<double> h = edge_entropies();
  if (h.empty()) return 0.0;
  double sum = 0.0;
  for (double v : h) sum += v;
  return sum / static_cast<double>(h.size());
}

void ArchPolicy::apply_gradient(const AlphaPair& grad_j) {
  AlphaPair step = grad_j;
  // Weight decay pulls alpha toward the uniform policy (maximizing
  // J - wd/2 * ||alpha||^2).
  step.add_scaled(alpha_, -cfg_.weight_decay);
  step.clip(cfg_.gradient_clip);
  alpha_.add_scaled(step, cfg_.learning_rate);
}

Genotype ArchPolicy::derive_genotype(int nodes) const {
  return discretize(alpha_.normal, alpha_.reduce, nodes);
}

}  // namespace fms
