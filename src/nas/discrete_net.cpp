#include "src/nas/discrete_net.h"

#include "src/tensor/ops.h"

namespace fms {
namespace {

void accumulate(Tensor& dst, const Tensor& src) {
  if (dst.empty()) {
    dst = src;
  } else {
    dst += src;
  }
}

}  // namespace

DiscreteCell::DiscreteCell(const Genotype& genotype, const CellSpec& spec,
                           Rng& rng)
    : spec_(spec) {
  FMS_CHECK(spec.nodes == genotype.nodes);
  pre0_ = spec.reduction_prev
              ? make_factorized_reduce(spec.c_prev_prev, spec.c, rng)
              : make_relu_conv_bn(spec.c_prev_prev, spec.c, 1, 1, 0, rng);
  pre1_ = make_relu_conv_bn(spec.c_prev, spec.c, 1, 1, 0, rng);
  const auto& edges = spec.reduction ? genotype.reduce : genotype.normal;
  FMS_CHECK(edges.size() == static_cast<std::size_t>(2 * spec.nodes));
  node_edges_.resize(static_cast<std::size_t>(spec.nodes));
  for (int node = 0; node < spec.nodes; ++node) {
    for (int k = 0; k < 2; ++k) {
      const GenotypeEdge& ge = edges[static_cast<std::size_t>(2 * node + k)];
      FMS_CHECK(ge.input >= 0 && ge.input < 2 + node);
      const int stride = (spec.reduction && ge.input < 2) ? 2 : 1;
      node_edges_[static_cast<std::size_t>(node)].push_back(
          {ge.input, make_candidate_op(ge.op, spec.c, stride, rng)});
    }
  }
}

Tensor DiscreteCell::forward(const Tensor& s0, const Tensor& s1, bool train) {
  states_.clear();
  states_.push_back(pre0_->forward(s0, train));
  states_.push_back(pre1_->forward(s1, train));
  for (auto& edges : node_edges_) {
    Tensor acc;
    for (auto& e : edges) {
      Tensor y = e.op->forward(states_[static_cast<std::size_t>(e.input)], train);
      accumulate(acc, y);
    }
    states_.push_back(std::move(acc));
  }
  has_cache_ = train;
  std::vector<Tensor> outs(states_.begin() + 2, states_.end());
  return concat_channels(outs);
}

std::pair<Tensor, Tensor> DiscreteCell::backward(const Tensor& grad_out) {
  FMS_CHECK_MSG(has_cache_, "DiscreteCell::backward without train forward");
  std::vector<Tensor> node_grads = split_channels(grad_out, spec_.nodes);
  std::vector<Tensor> grad_states(states_.size());
  for (std::size_t i = 0; i < states_.size(); ++i) {
    grad_states[i] = Tensor(states_[i].shape());
  }
  for (int node = 0; node < spec_.nodes; ++node) {
    grad_states[static_cast<std::size_t>(2 + node)] +=
        node_grads[static_cast<std::size_t>(node)];
  }
  for (int node = spec_.nodes - 1; node >= 0; --node) {
    const Tensor& g = grad_states[static_cast<std::size_t>(2 + node)];
    for (auto& e : node_edges_[static_cast<std::size_t>(node)]) {
      Tensor gin = e.op->backward(g);
      grad_states[static_cast<std::size_t>(e.input)] += gin;
    }
  }
  Tensor g0 = pre0_->backward(grad_states[0]);
  Tensor g1 = pre1_->backward(grad_states[1]);
  has_cache_ = false;
  states_.clear();
  return {std::move(g0), std::move(g1)};
}

void DiscreteCell::collect_params(std::vector<Param*>& out) {
  pre0_->collect_params(out);
  pre1_->collect_params(out);
  for (auto& edges : node_edges_) {
    for (auto& e : edges) e.op->collect_params(out);
  }
}

DiscreteNet::DiscreteNet(const Genotype& genotype, const SupernetConfig& cfg,
                         Rng& rng)
    : genotype_(genotype) {
  auto stem = std::make_unique<Sequential>();
  stem->add(std::make_unique<Conv2d>(cfg.image_channels, cfg.stem_channels, 3,
                                     Conv2dSpec{1, 1, 1, 1}, rng));
  stem->add(std::make_unique<BatchNorm2d>(cfg.stem_channels));
  stem_ = std::move(stem);

  int c_prev_prev = cfg.stem_channels;
  int c_prev = cfg.stem_channels;
  int c_curr = cfg.stem_channels;
  bool reduction_prev = false;
  for (int i = 0; i < cfg.num_cells; ++i) {
    const bool reduction =
        cfg.num_cells >= 3 &&
        (i == cfg.num_cells / 3 || i == 2 * cfg.num_cells / 3);
    if (reduction) c_curr *= 2;
    CellSpec spec;
    spec.nodes = cfg.num_nodes;
    spec.c_prev_prev = c_prev_prev;
    spec.c_prev = c_prev;
    spec.c = c_curr;
    spec.reduction = reduction;
    spec.reduction_prev = reduction_prev;
    cells_.push_back(std::make_unique<DiscreteCell>(genotype, spec, rng));
    reduction_prev = reduction;
    c_prev_prev = c_prev;
    c_prev = cells_.back()->out_channels();
  }
  gap_ = std::make_unique<GlobalAvgPool>();
  classifier_ = std::make_unique<Linear>(c_prev, cfg.num_classes, rng);

  stem_->collect_params(params_);
  for (auto& c : cells_) c->collect_params(params_);
  classifier_->collect_params(params_);
  for (Param* p : params_) param_count_ += p->numel();
}

Tensor DiscreteNet::forward(const Tensor& x, bool train) {
  Tensor stem_out = stem_->forward(x, train);
  Tensor s_pp = stem_out, s_p = stem_out;
  for (auto& cell : cells_) {
    Tensor out = cell->forward(s_pp, s_p, train);
    s_pp = std::move(s_p);
    s_p = std::move(out);
  }
  Tensor pooled = gap_->forward(s_p, train);
  has_cache_ = train;
  return classifier_->forward(pooled, train);
}

void DiscreteNet::backward(const Tensor& grad_logits) {
  FMS_CHECK_MSG(has_cache_, "DiscreteNet::backward without train forward");
  Tensor g = classifier_->backward(grad_logits);
  g = gap_->backward(g);
  std::vector<Tensor> gstate(cells_.size() + 2);
  accumulate(gstate[cells_.size() + 1], g);
  for (int i = static_cast<int>(cells_.size()) - 1; i >= 0; --i) {
    auto [g0, g1] = cells_[static_cast<std::size_t>(i)]->backward(
        gstate[static_cast<std::size_t>(i) + 2]);
    accumulate(gstate[static_cast<std::size_t>(i)], g0);
    accumulate(gstate[static_cast<std::size_t>(i) + 1], g1);
  }
  Tensor stem_grad = gstate[0];
  stem_grad += gstate[1];
  stem_->backward(stem_grad);
  has_cache_ = false;
}

void DiscreteNet::zero_grad() {
  for (Param* p : params_) p->grad.zero();
}

}  // namespace fms
