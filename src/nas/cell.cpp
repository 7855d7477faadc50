#include "src/nas/cell.h"

#include "src/tensor/ops.h"

namespace fms {

Cell::Cell(const CellSpec& spec, Rng& rng) : spec_(spec) {
  pre0_ = spec.reduction_prev
              ? make_factorized_reduce(spec.c_prev_prev, spec.c, rng)
              : make_relu_conv_bn(spec.c_prev_prev, spec.c, 1, 1, 0, rng);
  pre1_ = make_relu_conv_bn(spec.c_prev, spec.c, 1, 1, 0, rng);
  ops_.resize(static_cast<std::size_t>(num_edges()));
  for (int node = 0; node < spec.nodes; ++node) {
    for (int input = 0; input < 2 + node; ++input) {
      const int e = edge_index(node, input);
      // Reduction cells stride only the edges fed by the cell inputs.
      const int stride = (spec.reduction && input < 2) ? 2 : 1;
      for (int op = 0; op < kNumOps; ++op) {
        ops_[static_cast<std::size_t>(e)][static_cast<std::size_t>(op)] =
            make_candidate_op(static_cast<OpType>(op), spec.c, stride, rng);
      }
    }
  }
}

int Cell::edge_index(int node, int input) const {
  FMS_CHECK(node >= 0 && node < spec_.nodes && input >= 0 && input < 2 + node);
  // Edges of nodes 0..node-1 occupy sum_{i<node}(2+i) slots.
  return node * (node + 3) / 2 + input;
}

Tensor Cell::forward(const Tensor& s0, const Tensor& s1,
                     const std::vector<int>& mask, bool train) {
  FMS_CHECK(static_cast<int>(mask.size()) == num_edges());
  cached_mask_ = mask;
  mixed_mode_ = false;
  states_.clear();
  states_.push_back(pre0_->forward(s0, train));
  states_.push_back(pre1_->forward(s1, train));
  for (int node = 0; node < spec_.nodes; ++node) {
    Tensor acc;
    for (int input = 0; input < 2 + node; ++input) {
      const int e = edge_index(node, input);
      const int op = mask[static_cast<std::size_t>(e)];
      FMS_CHECK(op >= 0 && op < kNumOps);
      Tensor y = ops_[static_cast<std::size_t>(e)][static_cast<std::size_t>(op)]
                     ->forward(states_[static_cast<std::size_t>(input)], train);
      if (acc.empty()) {
        acc = std::move(y);
      } else {
        acc += y;
      }
    }
    states_.push_back(std::move(acc));
  }
  has_cache_ = train;
  std::vector<Tensor> outs(states_.begin() + 2, states_.end());
  return concat_channels(outs);
}

std::pair<Tensor, Tensor> Cell::backward(const Tensor& grad_out) {
  FMS_CHECK_MSG(has_cache_ && !mixed_mode_,
                "Cell::backward without masked train forward");
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
    for (int input = 0; input < 2 + node; ++input) {
      const int e = edge_index(node, input);
      const int op = cached_mask_[static_cast<std::size_t>(e)];
      Tensor gin =
          ops_[static_cast<std::size_t>(e)][static_cast<std::size_t>(op)]
              ->backward(g);
      grad_states[static_cast<std::size_t>(input)] += gin;
    }
  }
  return finish_backward(std::move(grad_states));
}

Tensor Cell::forward_mixed(const Tensor& s0, const Tensor& s1,
                           const EdgeWeights& weights, bool train) {
  FMS_CHECK(static_cast<int>(weights.size()) == num_edges());
  cached_weights_ = weights;
  mixed_mode_ = true;
  states_.clear();
  mixed_outputs_.assign(static_cast<std::size_t>(num_edges()), {});
  states_.push_back(pre0_->forward(s0, train));
  states_.push_back(pre1_->forward(s1, train));
  for (int node = 0; node < spec_.nodes; ++node) {
    Tensor acc;
    for (int input = 0; input < 2 + node; ++input) {
      const int e = edge_index(node, input);
      for (int op = 0; op < kNumOps; ++op) {
        Tensor y =
            ops_[static_cast<std::size_t>(e)][static_cast<std::size_t>(op)]
                ->forward(states_[static_cast<std::size_t>(input)], train);
        const float w = weights[static_cast<std::size_t>(e)]
                               [static_cast<std::size_t>(op)];
        if (acc.empty()) acc = Tensor(y.shape());
        Tensor scaled = y;
        scaled *= w;
        acc += scaled;
        if (train) {
          mixed_outputs_[static_cast<std::size_t>(e)]
                        [static_cast<std::size_t>(op)] = std::move(y);
        }
      }
    }
    states_.push_back(std::move(acc));
  }
  has_cache_ = train;
  std::vector<Tensor> outs(states_.begin() + 2, states_.end());
  return concat_channels(outs);
}

std::pair<Tensor, Tensor> Cell::backward_mixed(const Tensor& grad_out,
                                               EdgeWeights& grad_weights) {
  FMS_CHECK_MSG(has_cache_ && mixed_mode_,
                "Cell::backward_mixed without mixed train forward");
  FMS_CHECK(static_cast<int>(grad_weights.size()) == num_edges());
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
    for (int input = 0; input < 2 + node; ++input) {
      const int e = edge_index(node, input);
      for (int op = 0; op < kNumOps; ++op) {
        const Tensor& y = mixed_outputs_[static_cast<std::size_t>(e)]
                                        [static_cast<std::size_t>(op)];
        // dL/dw_e,o = <grad_node, op_output>
        double dot = 0.0;
        for (std::size_t i = 0; i < y.numel(); ++i) dot += g[i] * y[i];
        grad_weights[static_cast<std::size_t>(e)][static_cast<std::size_t>(op)] +=
            static_cast<float>(dot);
        Tensor g_op = g;
        g_op *= cached_weights_[static_cast<std::size_t>(e)]
                               [static_cast<std::size_t>(op)];
        Tensor gin =
            ops_[static_cast<std::size_t>(e)][static_cast<std::size_t>(op)]
                ->backward(g_op);
        grad_states[static_cast<std::size_t>(input)] += gin;
      }
    }
  }
  return finish_backward(std::move(grad_states));
}

std::pair<Tensor, Tensor> Cell::finish_backward(
    std::vector<Tensor>&& grad_states) {
  Tensor g0 = pre0_->backward(grad_states[0]);
  Tensor g1 = pre1_->backward(grad_states[1]);
  has_cache_ = false;
  states_.clear();
  mixed_outputs_.clear();
  return {std::move(g0), std::move(g1)};
}

void Cell::collect_params(std::vector<Param*>& out) {
  pre0_->collect_params(out);
  pre1_->collect_params(out);
  for (auto& edge : ops_) {
    for (auto& op : edge) op->collect_params(out);
  }
}

void Cell::collect_shared_params(std::vector<Param*>& out) {
  pre0_->collect_params(out);
  pre1_->collect_params(out);
}

void Cell::collect_op_params(int edge, int op, std::vector<Param*>& out) {
  FMS_CHECK(edge >= 0 && edge < num_edges() && op >= 0 && op < kNumOps);
  ops_[static_cast<std::size_t>(edge)][static_cast<std::size_t>(op)]
      ->collect_params(out);
}

}  // namespace fms
