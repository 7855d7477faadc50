#include "src/nas/supernet.h"

#include "src/obs/profile.h"
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

Supernet::Supernet(const SupernetConfig& cfg, Rng& rng) : cfg_(cfg) {
  FMS_CHECK(cfg.num_cells >= 1 && cfg.num_nodes >= 1);
  // Stem: 3x3 conv + BN to stem_channels.
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
    cells_.push_back(std::make_unique<Cell>(spec, rng));
    cell_is_reduction_.push_back(reduction);
    reduction_prev = reduction;
    c_prev_prev = c_prev;
    c_prev = cells_.back()->out_channels();
  }
  gap_ = std::make_unique<GlobalAvgPool>();
  classifier_ = std::make_unique<Linear>(c_prev, cfg.num_classes, rng);
  build_param_index();
}

void Supernet::build_param_index() {
  params_.clear();
  tags_.clear();
  auto add_shared = [&](std::vector<Param*>&& ps) {
    for (Param* p : ps) {
      params_.push_back(p);
      tags_.push_back(ParamTag{});
    }
  };
  {
    std::vector<Param*> ps;
    stem_->collect_params(ps);
    add_shared(std::move(ps));
  }
  for (std::size_t ci = 0; ci < cells_.size(); ++ci) {
    {
      std::vector<Param*> ps;
      cells_[ci]->collect_shared_params(ps);
      add_shared(std::move(ps));
    }
    for (int e = 0; e < cells_[ci]->num_edges(); ++e) {
      for (int op = 0; op < kNumOps; ++op) {
        std::vector<Param*> ps;
        cells_[ci]->collect_op_params(e, op, ps);
        for (Param* p : ps) {
          params_.push_back(p);
          tags_.push_back(ParamTag{false, cell_is_reduction_[ci], e, op});
        }
      }
    }
  }
  {
    std::vector<Param*> ps;
    classifier_->collect_params(ps);
    add_shared(std::move(ps));
  }
}

Tensor Supernet::forward(const Tensor& x, const Mask& mask, bool train) {
  FMS_OP("nas.forward");
  FMS_CHECK(static_cast<int>(mask.normal.size()) == num_edges());
  FMS_CHECK(static_cast<int>(mask.reduce.size()) == num_edges());
  mixed_mode_ = false;
  cached_batch_ = x.dim(0);
  Tensor stem_out = stem_->forward(x, train);
  Tensor s_pp = stem_out, s_p = stem_out;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const auto& m = cell_is_reduction_[i] ? mask.reduce : mask.normal;
    Tensor out = cells_[i]->forward(s_pp, s_p, m, train);
    s_pp = std::move(s_p);
    s_p = std::move(out);
  }
  Tensor pooled = gap_->forward(s_p, train);
  has_cache_ = train;
  return classifier_->forward(pooled, train);
}

void Supernet::backward(const Tensor& grad_logits) {
  FMS_OP("nas.backward");
  FMS_CHECK_MSG(has_cache_ && !mixed_mode_,
                "Supernet::backward without masked train forward");
  Tensor g = classifier_->backward(grad_logits);
  g = gap_->backward(g);
  std::vector<Tensor> gstate(cells_.size() + 2);
  accumulate(gstate[cells_.size() + 1], g);
  for (int i = static_cast<int>(cells_.size()) - 1; i >= 0; --i) {
    auto [g0, g1] =
        cells_[static_cast<std::size_t>(i)]->backward(
            gstate[static_cast<std::size_t>(i) + 2]);
    accumulate(gstate[static_cast<std::size_t>(i)], g0);
    accumulate(gstate[static_cast<std::size_t>(i) + 1], g1);
  }
  Tensor stem_grad = gstate[0];
  stem_grad += gstate[1];
  stem_->backward(stem_grad);
  has_cache_ = false;
}

Tensor Supernet::forward_mixed(const Tensor& x, const EdgeWeights& w_normal,
                               const EdgeWeights& w_reduce, bool train) {
  mixed_mode_ = true;
  cached_batch_ = x.dim(0);
  Tensor stem_out = stem_->forward(x, train);
  Tensor s_pp = stem_out, s_p = stem_out;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const auto& w = cell_is_reduction_[i] ? w_reduce : w_normal;
    Tensor out = cells_[i]->forward_mixed(s_pp, s_p, w, train);
    s_pp = std::move(s_p);
    s_p = std::move(out);
  }
  Tensor pooled = gap_->forward(s_p, train);
  has_cache_ = train;
  return classifier_->forward(pooled, train);
}

void Supernet::backward_mixed(const Tensor& grad_logits,
                              EdgeWeights& gw_normal, EdgeWeights& gw_reduce) {
  FMS_CHECK_MSG(has_cache_ && mixed_mode_,
                "Supernet::backward_mixed without mixed train forward");
  Tensor g = classifier_->backward(grad_logits);
  g = gap_->backward(g);
  std::vector<Tensor> gstate(cells_.size() + 2);
  accumulate(gstate[cells_.size() + 1], g);
  for (int i = static_cast<int>(cells_.size()) - 1; i >= 0; --i) {
    auto& gw = cell_is_reduction_[static_cast<std::size_t>(i)] ? gw_reduce
                                                               : gw_normal;
    auto [g0, g1] = cells_[static_cast<std::size_t>(i)]->backward_mixed(
        gstate[static_cast<std::size_t>(i) + 2], gw);
    accumulate(gstate[static_cast<std::size_t>(i)], g0);
    accumulate(gstate[static_cast<std::size_t>(i) + 1], g1);
  }
  Tensor stem_grad = gstate[0];
  stem_grad += gstate[1];
  stem_->backward(stem_grad);
  has_cache_ = false;
}

const std::vector<Param*>& Supernet::params() { return params_; }

void Supernet::zero_grad() {
  for (Param* p : params_) p->grad.zero();
}

std::vector<std::size_t> Supernet::masked_param_ids(const Mask& mask) {
  FMS_OP("nas.mask_ids");
  FMS_CHECK(static_cast<int>(mask.normal.size()) == num_edges());
  FMS_CHECK(static_cast<int>(mask.reduce.size()) == num_edges());
  std::vector<std::size_t> ids;
  for (std::size_t i = 0; i < tags_.size(); ++i) {
    const ParamTag& t = tags_[i];
    if (t.shared) {
      ids.push_back(i);
      continue;
    }
    const auto& m = t.reduction ? mask.reduce : mask.normal;
    if (m[static_cast<std::size_t>(t.edge)] == t.op) ids.push_back(i);
  }
  return ids;
}

std::vector<float> Supernet::gather_values(
    const std::vector<std::size_t>& ids) {
  FMS_OP("nas.gather");
  std::vector<float> flat;
  for (std::size_t id : ids) {
    const auto& v = params_[id]->value.vec();
    flat.insert(flat.end(), v.begin(), v.end());
  }
  return flat;
}

std::vector<float> Supernet::gather_grads(const std::vector<std::size_t>& ids) {
  FMS_OP("nas.gather");
  std::vector<float> flat;
  for (std::size_t id : ids) {
    const auto& g = params_[id]->grad.vec();
    flat.insert(flat.end(), g.begin(), g.end());
  }
  return flat;
}

void Supernet::scatter_values(const std::vector<std::size_t>& ids,
                              const std::vector<float>& flat) {
  FMS_OP("nas.scatter");
  std::size_t pos = 0;
  for (std::size_t id : ids) {
    auto& v = params_[id]->value.vec();
    FMS_CHECK(pos + v.size() <= flat.size());
    std::copy(flat.begin() + static_cast<std::ptrdiff_t>(pos),
              flat.begin() + static_cast<std::ptrdiff_t>(pos + v.size()),
              v.begin());
    pos += v.size();
  }
  FMS_CHECK_MSG(pos == flat.size(), "scatter size mismatch");
}

void Supernet::scatter_add_grads(const std::vector<std::size_t>& ids,
                                 const std::vector<float>& flat) {
  FMS_OP("nas.scatter");
  std::size_t pos = 0;
  for (std::size_t id : ids) {
    auto& g = params_[id]->grad.vec();
    FMS_CHECK(pos + g.size() <= flat.size());
    for (std::size_t i = 0; i < g.size(); ++i) g[i] += flat[pos + i];
    pos += g.size();
  }
  FMS_CHECK_MSG(pos == flat.size(), "scatter size mismatch");
}

std::vector<float> Supernet::gather_from_flat(
    const std::vector<float>& flat, const std::vector<std::size_t>& ids) {
  FMS_OP("nas.gather");
  if (offsets_.empty()) {
    offsets_.reserve(params_.size());
    std::size_t pos = 0;
    for (Param* p : params_) {
      offsets_.push_back(pos);
      pos += p->numel();
    }
  }
  FMS_CHECK(flat.size() == param_count());
  std::vector<float> out;
  for (std::size_t id : ids) {
    const std::size_t off = offsets_[id];
    const std::size_t n = params_[id]->numel();
    out.insert(out.end(), flat.begin() + static_cast<std::ptrdiff_t>(off),
               flat.begin() + static_cast<std::ptrdiff_t>(off + n));
  }
  return out;
}

std::vector<float> Supernet::dense_from_masked(
    const std::vector<std::size_t>& ids, const std::vector<float>& flat) {
  FMS_OP("nas.densify");
  if (offsets_.empty()) {
    offsets_.reserve(params_.size());
    std::size_t pos = 0;
    for (Param* p : params_) {
      offsets_.push_back(pos);
      pos += p->numel();
    }
  }
  std::vector<float> dense(param_count(), 0.0F);
  std::size_t pos = 0;
  for (std::size_t id : ids) {
    const std::size_t off = offsets_[id];
    const std::size_t n = params_[id]->numel();
    FMS_CHECK(pos + n <= flat.size());
    std::copy(flat.begin() + static_cast<std::ptrdiff_t>(pos),
              flat.begin() + static_cast<std::ptrdiff_t>(pos + n),
              dense.begin() + static_cast<std::ptrdiff_t>(off));
    pos += n;
  }
  FMS_CHECK_MSG(pos == flat.size(), "dense scatter size mismatch");
  return dense;
}

std::vector<std::uint8_t> Supernet::presence_from_masked(
    const std::vector<std::size_t>& ids) {
  FMS_OP("nas.presence");
  if (offsets_.empty()) {
    offsets_.reserve(params_.size());
    std::size_t pos = 0;
    for (Param* p : params_) {
      offsets_.push_back(pos);
      pos += p->numel();
    }
  }
  std::vector<std::uint8_t> present(param_count(), 0);
  for (std::size_t id : ids) {
    const std::size_t off = offsets_[id];
    const std::size_t n = params_[id]->numel();
    std::fill(present.begin() + static_cast<std::ptrdiff_t>(off),
              present.begin() + static_cast<std::ptrdiff_t>(off + n),
              std::uint8_t{1});
  }
  return present;
}

void Supernet::add_flat_grads(const std::vector<float>& flat) {
  FMS_OP("nas.scatter");
  std::size_t pos = 0;
  for (Param* p : params_) {
    auto& g = p->grad.vec();
    FMS_CHECK(pos + g.size() <= flat.size());
    for (std::size_t i = 0; i < g.size(); ++i) g[i] += flat[pos + i];
    pos += g.size();
  }
  FMS_CHECK_MSG(pos == flat.size(), "flat grad size mismatch");
}

std::vector<float> Supernet::flat_values() {
  FMS_OP("nas.gather");
  std::vector<float> flat;
  flat.reserve(param_count());
  for (Param* p : params_) {
    flat.insert(flat.end(), p->value.vec().begin(), p->value.vec().end());
  }
  return flat;
}

void Supernet::set_flat_values(const std::vector<float>& flat) {
  FMS_OP("nas.scatter");
  std::size_t pos = 0;
  for (Param* p : params_) {
    auto& v = p->value.vec();
    FMS_CHECK(pos + v.size() <= flat.size());
    std::copy(flat.begin() + static_cast<std::ptrdiff_t>(pos),
              flat.begin() + static_cast<std::ptrdiff_t>(pos + v.size()),
              v.begin());
    pos += v.size();
  }
  FMS_CHECK_MSG(pos == flat.size(), "flat size mismatch");
}

std::size_t Supernet::param_count() {
  std::size_t n = 0;
  for (Param* p : params_) n += p->numel();
  return n;
}

std::size_t Supernet::param_count_masked(const Mask& mask) {
  std::size_t n = 0;
  for (std::size_t id : masked_param_ids(mask)) n += params_[id]->numel();
  return n;
}

std::size_t Supernet::supernet_bytes() {
  // float32 values plus a small fixed header.
  return 16 + 4 * param_count();
}

std::size_t Supernet::submodel_bytes(const Mask& mask) {
  // float32 values + one byte per edge per cell template for the mask.
  return 16 + mask.normal.size() + mask.reduce.size() +
         4 * param_count_masked(mask);
}

Mask random_mask(int num_edges, Rng& rng) {
  Mask m;
  m.normal.resize(static_cast<std::size_t>(num_edges));
  m.reduce.resize(static_cast<std::size_t>(num_edges));
  for (auto& v : m.normal) v = rng.randint(0, kNumOps - 1);
  for (auto& v : m.reduce) v = rng.randint(0, kNumOps - 1);
  return m;
}

}  // namespace fms
