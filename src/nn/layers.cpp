#include "src/nn/layers.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>

#include "src/obs/work.h"

namespace fms {
namespace {

// Dims come off Tensor as int; the cost models take element counts.
inline std::size_t sz(int v) { return static_cast<std::size_t>(v); }

// Output element count of a k x k, stride `stride` window over x's planes.
std::size_t windowed_numel(const Tensor& x, int k, int stride, int padding) {
  return sz(x.dim(0)) * sz(x.dim(1)) *
         sz(conv_out_size(x.dim(2), k, stride, padding, 1)) *
         sz(conv_out_size(x.dim(3), k, stride, padding, 1));
}

std::size_t numel_of(const std::vector<int>& shape) {
  std::size_t n = 1;
  for (int d : shape) n *= sz(d);
  return n;
}

// body(row) for the offset of channel ic's plane in each sample of an
// [n, c, h, w] tensor, samples in order.
template <typename Body>
void for_each_channel_row(int n, int c, int ic, std::ptrdiff_t hw, Body&& body) {
  for (int in = 0; in < n; ++in)
    body((static_cast<std::ptrdiff_t>(in) * c + ic) * hw);
}

// BatchNorm reduces each channel over (n, h, w) into a double, one
// in-order chain per sum. A single chain is bound by the add latency, so
// kChannelLanes channels run their chains side by side; each lane still
// adds its own channel's terms in (n, h, w) order, so the sums are the
// direct loops' sums bit for bit.
constexpr int kChannelLanes = 8;

struct ChannelLanes {
  // Channels [c0, c0 + count) of an [n, c, h, w] tensor. Lanes past
  // `count` repeat the last channel; their sums are never read.
  ChannelLanes(int n, int c, int c0, std::ptrdiff_t hw)
      : n(n), count(std::min(kChannelLanes, c - c0)), hw(hw),
        sample(static_cast<std::ptrdiff_t>(c) * hw) {
    for (int l = 0; l < kChannelLanes; ++l)
      plane[l] = static_cast<std::ptrdiff_t>(c0 + std::min(l, count - 1)) * hw;
  }

  // term(lane, e) for the flat offset e of every element of every lane's
  // channel, in (n, h, w) order within each lane.
  template <typename Term>
  void for_each_term(Term&& term) const {
    for (int in = 0; in < n; ++in) {
      const std::ptrdiff_t base = in * sample;
      for (std::ptrdiff_t i = 0; i < hw; ++i)
        for (int l = 0; l < kChannelLanes; ++l) term(l, base + plane[l] + i);
    }
  }

  int n;
  int count;
  std::ptrdiff_t hw;
  std::ptrdiff_t sample;
  std::ptrdiff_t plane[kChannelLanes];
};

}  // namespace

Conv2d::Conv2d(int in_channels, int out_channels, int kernel, Conv2dSpec spec,
               Rng& rng)
    : spec_(spec) {
  FMS_CHECK(in_channels % spec.groups == 0 && out_channels % spec.groups == 0);
  const int cin_g = in_channels / spec.groups;
  const float fan_in = static_cast<float>(cin_g * kernel * kernel);
  const float stddev = std::sqrt(2.0F / fan_in);
  w_ = Param(Tensor::randn({out_channels, cin_g, kernel, kernel}, rng, stddev));
}

Tensor Conv2d::forward(const Tensor& x, bool train) {
  const Tensor& w = w_.value;
  FMS_OP("nn.conv_fwd",
         obs::conv2d_fwd_cost(
             sz(x.dim(0)), sz(x.dim(1)), sz(x.dim(2)), sz(x.dim(3)),
             sz(w.dim(0)), sz(w.dim(2)), sz(w.dim(3)),
             sz(conv_out_size(x.dim(2), w.dim(2), spec_.stride, spec_.padding,
                              spec_.dilation)),
             sz(conv_out_size(x.dim(3), w.dim(3), spec_.stride, spec_.padding,
                              spec_.dilation)),
             sz(spec_.groups)));
  cached_x_ = train ? x : Tensor();
  has_cache_ = train;
  return conv2d_forward(x, w, spec_);
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  FMS_CHECK_MSG(has_cache_, "Conv2d::backward without train-mode forward");
  FMS_OP("nn.conv_bwd",
         obs::conv2d_bwd_cost(
             sz(cached_x_.dim(0)), sz(cached_x_.dim(1)), sz(cached_x_.dim(2)),
             sz(cached_x_.dim(3)), sz(w_.value.dim(0)), sz(w_.value.dim(2)),
             sz(w_.value.dim(3)), sz(grad_out.dim(2)), sz(grad_out.dim(3)),
             sz(spec_.groups)));
  has_cache_ = false;
  const Tensor x = std::move(cached_x_);
  Conv2dGrads g = conv2d_backward(x, w_.value, grad_out, spec_);
  w_.grad += g.grad_w;
  return std::move(g.grad_x);
}

BatchNorm2d::BatchNorm2d(int channels, float eps, float momentum)
    : channels_(channels),
      eps_(eps),
      momentum_(momentum),
      gamma_(Tensor::full({channels}, 1.0F)),
      beta_(Tensor::zeros({channels})),
      running_mean_({channels}),
      running_var_(Tensor::full({channels}, 1.0F)) {}

Tensor BatchNorm2d::forward(const Tensor& x, bool train) {
  FMS_CHECK(x.ndim() == 4 && x.dim(1) == channels_);
  const int n = x.dim(0), c = channels_;
  const std::ptrdiff_t hw = std::ptrdiff_t{x.dim(2)} * x.dim(3);
  FMS_OP("nn.bn_fwd", obs::batchnorm_fwd_cost(sz(n), sz(c), sz(x.dim(2)),
                                              sz(x.dim(3)), train));
  const std::size_t m = static_cast<std::size_t>(n) * static_cast<std::size_t>(hw);
  const float* xp = x.data();
  Tensor y(x.shape());
  if (!train) {
    has_cache_ = false;
    cached_xhat_ = Tensor();
    cached_inv_std_.clear();
    for (int ic = 0; ic < c; ++ic) {
      const auto ci = static_cast<std::size_t>(ic);
      const float mean = running_mean_[ci];
      const float inv_std = 1.0F / std::sqrt(running_var_[ci] + eps_);
      const float g = gamma_.value[ci];
      const float b = beta_.value[ci];
      for_each_channel_row(n, c, ic, hw, [&](std::ptrdiff_t row) {
        const float* s = xp + row;
        float* out = y.data() + row;
        for (std::ptrdiff_t i = 0; i < hw; ++i)
          out[i] = g * (s[i] - mean) * inv_std + b;
      });
    }
    return y;
  }
  cached_xhat_ = Tensor(x.shape());
  cached_inv_std_.assign(static_cast<std::size_t>(c), 0.0F);
  for (int c0 = 0; c0 < c; c0 += kChannelLanes) {
    const ChannelLanes lanes(n, c, c0, hw);
    double mean[kChannelLanes] = {};
    lanes.for_each_term([&](int l, std::ptrdiff_t e) { mean[l] += xp[e]; });
    for (double& v : mean) v /= static_cast<double>(m);
    double var[kChannelLanes] = {};
    lanes.for_each_term([&](int l, std::ptrdiff_t e) {
      const double d = xp[e] - mean[l];
      var[l] += d * d;
    });
    for (double& v : var) v /= static_cast<double>(m);
    for (int l = 0; l < lanes.count; ++l) {
      const auto ci = static_cast<std::size_t>(c0 + l);
      const float inv_std = 1.0F / std::sqrt(static_cast<float>(var[l]) + eps_);
      cached_inv_std_[ci] = inv_std;
      running_mean_[ci] =
          (1.0F - momentum_) * running_mean_[ci] + momentum_ * static_cast<float>(mean[l]);
      running_var_[ci] =
          (1.0F - momentum_) * running_var_[ci] + momentum_ * static_cast<float>(var[l]);
      const float g = gamma_.value[ci];
      const float b = beta_.value[ci];
      const float mean_l = static_cast<float>(mean[l]);
      for_each_channel_row(n, c, c0 + l, hw, [&](std::ptrdiff_t row) {
        const float* s = xp + row;
        float* xh = cached_xhat_.data() + row;
        float* out = y.data() + row;
        for (std::ptrdiff_t i = 0; i < hw; ++i) {
          const float xhat = (s[i] - mean_l) * inv_std;
          xh[i] = xhat;
          out[i] = g * xhat + b;
        }
      });
    }
  }
  has_cache_ = true;
  return y;
}

Tensor BatchNorm2d::backward(const Tensor& grad_out) {
  FMS_CHECK_MSG(has_cache_, "BatchNorm2d::backward without train forward");
  FMS_OP("nn.bn_bwd",
         obs::batchnorm_bwd_cost(sz(cached_xhat_.dim(0)), sz(channels_),
                                 sz(cached_xhat_.dim(2)),
                                 sz(cached_xhat_.dim(3))));
  has_cache_ = false;
  const Tensor xhat = std::move(cached_xhat_);
  const std::vector<float> inv_stds = std::move(cached_inv_std_);
  cached_inv_std_.clear();
  FMS_CHECK(grad_out.same_shape(xhat));
  const int n = xhat.dim(0), c = channels_;
  const std::ptrdiff_t hw = std::ptrdiff_t{xhat.dim(2)} * xhat.dim(3);
  const double m = static_cast<double>(n) * static_cast<double>(hw);
  const float* gyp = grad_out.data();
  const float* xhp = xhat.data();
  Tensor grad_x(xhat.shape());
  for (int c0 = 0; c0 < c; c0 += kChannelLanes) {
    const ChannelLanes lanes(n, c, c0, hw);
    double sum_gy[kChannelLanes] = {}, sum_gy_xhat[kChannelLanes] = {};
    lanes.for_each_term([&](int l, std::ptrdiff_t e) {
      const double gy = gyp[e];
      sum_gy[l] += gy;
      sum_gy_xhat[l] += gy * xhp[e];
    });
    for (int l = 0; l < lanes.count; ++l) {
      const auto ci = static_cast<std::size_t>(c0 + l);
      gamma_.grad[ci] += static_cast<float>(sum_gy_xhat[l]);
      beta_.grad[ci] += static_cast<float>(sum_gy[l]);
      const float g = gamma_.value[ci];
      const float inv_std = inv_stds[ci];
      const float mean_gy = static_cast<float>(sum_gy[l] / m);
      const float mean_gy_xhat = static_cast<float>(sum_gy_xhat[l] / m);
      for_each_channel_row(n, c, c0 + l, hw, [&](std::ptrdiff_t row) {
        const float* gy = gyp + row;
        const float* xh = xhp + row;
        float* gx = grad_x.data() + row;
        for (std::ptrdiff_t i = 0; i < hw; ++i)
          gx[i] = g * inv_std * (gy[i] - mean_gy - xh[i] * mean_gy_xhat);
      });
    }
  }
  return grad_x;
}

Tensor ReLU::forward(const Tensor& x, bool train) {
  FMS_OP("nn.relu_fwd", obs::relu_fwd_cost(x.numel()));
  cached_x_ = train ? x : Tensor();
  has_cache_ = train;
  return relu_forward(x);
}

Tensor ReLU::backward(const Tensor& grad_out) {
  FMS_OP("nn.relu_bwd", obs::relu_bwd_cost(grad_out.numel()));
  FMS_CHECK_MSG(has_cache_, "ReLU::backward without train-mode forward");
  has_cache_ = false;
  const Tensor x = std::move(cached_x_);
  return relu_backward(x, grad_out);
}

Tensor MaxPool2d::forward(const Tensor& x, bool train) {
  FMS_OP("nn.maxpool_fwd",
         obs::maxpool_fwd_cost(x.numel(),
                               windowed_numel(x, kernel_, stride_, padding_),
                               sz(kernel_)));
  MaxPoolResult res = maxpool2d_forward(x, kernel_, stride_, padding_);
  cached_shape_ = train ? x.shape() : std::vector<int>();
  cached_argmax_ = train ? std::move(res.argmax) : std::vector<std::size_t>();
  has_cache_ = train;
  return std::move(res.y);
}

Tensor MaxPool2d::backward(const Tensor& grad_out) {
  FMS_CHECK_MSG(has_cache_, "MaxPool2d::backward without train forward");
  FMS_OP("nn.maxpool_bwd",
         obs::maxpool_bwd_cost(numel_of(cached_shape_), grad_out.numel()));
  has_cache_ = false;
  MaxPoolResult fwd;
  fwd.argmax = std::move(cached_argmax_);
  cached_argmax_.clear();
  return maxpool2d_backward(cached_shape_, fwd, grad_out);
}

Tensor AvgPool2d::forward(const Tensor& x, bool train) {
  FMS_OP("nn.avgpool_fwd",
         obs::avgpool_fwd_cost(x.numel(),
                               windowed_numel(x, kernel_, stride_, padding_),
                               sz(kernel_)));
  cached_shape_ = train ? x.shape() : std::vector<int>();
  has_cache_ = train;
  return avgpool2d_forward(x, kernel_, stride_, padding_);
}

Tensor AvgPool2d::backward(const Tensor& grad_out) {
  FMS_CHECK_MSG(has_cache_, "AvgPool2d::backward without train forward");
  FMS_OP("nn.avgpool_bwd",
         obs::avgpool_bwd_cost(numel_of(cached_shape_), grad_out.numel(),
                               sz(kernel_)));
  has_cache_ = false;
  return avgpool2d_backward(cached_shape_, grad_out, kernel_, stride_, padding_);
}

Tensor GlobalAvgPool::forward(const Tensor& x, bool train) {
  FMS_OP("nn.gap_fwd",
         obs::global_avgpool_fwd_cost(sz(x.dim(0)), sz(x.dim(1)),
                                      sz(x.dim(2)), sz(x.dim(3))));
  cached_shape_ = train ? x.shape() : std::vector<int>();
  has_cache_ = train;
  return global_avgpool_forward(x);
}

Tensor GlobalAvgPool::backward(const Tensor& grad_out) {
  FMS_CHECK_MSG(has_cache_, "GlobalAvgPool::backward without train forward");
  const std::vector<int>& s = cached_shape_;
  FMS_OP("nn.gap_bwd", obs::global_avgpool_bwd_cost(sz(s[0]), sz(s[1]),
                                                    sz(s[2]), sz(s[3])));
  has_cache_ = false;
  return global_avgpool_backward(s, grad_out);
}

Linear::Linear(int in_features, int out_features, Rng& rng) {
  const float stddev = std::sqrt(2.0F / static_cast<float>(in_features));
  w_ = Param(Tensor::randn({out_features, in_features}, rng, stddev));
  b_ = Param(Tensor::zeros({out_features}));
}

Tensor Linear::forward(const Tensor& x, bool train) {
  FMS_CHECK(x.ndim() == 2 && x.dim(1) == w_.value.dim(1));
  FMS_OP("nn.linear_fwd", obs::linear_fwd_cost(sz(x.dim(0)), sz(x.dim(1)),
                                               sz(w_.value.dim(0))));
  cached_x_ = train ? x : Tensor();
  has_cache_ = train;
  Tensor y = matmul_nt(x, w_.value);  // [N, out]
  const int n = y.dim(0), out = y.dim(1);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < out; ++j)
      y.at2(i, j) += b_.value[static_cast<std::size_t>(j)];
  return y;
}

Tensor Linear::backward(const Tensor& grad_out) {
  FMS_CHECK_MSG(has_cache_, "Linear::backward without train-mode forward");
  FMS_OP("nn.linear_bwd", obs::linear_bwd_cost(sz(grad_out.dim(0)),
                                               sz(w_.value.dim(1)),
                                               sz(w_.value.dim(0))));
  has_cache_ = false;
  const Tensor x = std::move(cached_x_);
  // grad_w = grad_out^T [N,out] x cached_x [N,in] -> [out,in]
  w_.grad += matmul_tn(grad_out, x);
  const int n = grad_out.dim(0), out = grad_out.dim(1);
  for (int j = 0; j < out; ++j) {
    float acc = 0.0F;
    for (int i = 0; i < n; ++i) acc += grad_out.at2(i, j);
    b_.grad[static_cast<std::size_t>(j)] += acc;
  }
  return matmul(grad_out, w_.value);  // [N, in]
}

std::unique_ptr<Module> make_relu_conv_bn(int cin, int cout, int kernel,
                                          int stride, int padding, Rng& rng) {
  auto seq = std::make_unique<Sequential>();
  seq->add(std::make_unique<ReLU>());
  seq->add(std::make_unique<Conv2d>(
      cin, cout, kernel, Conv2dSpec{stride, padding, 1, 1}, rng));
  seq->add(std::make_unique<BatchNorm2d>(cout));
  return seq;
}

std::unique_ptr<Module> make_sep_conv(int channels, int kernel, int stride,
                                      Rng& rng) {
  const int pad = kernel / 2;
  auto seq = std::make_unique<Sequential>();
  seq->add(std::make_unique<ReLU>());
  seq->add(std::make_unique<Conv2d>(channels, channels, kernel,
                                    Conv2dSpec{stride, pad, 1, channels}, rng));
  seq->add(std::make_unique<Conv2d>(channels, channels, 1,
                                    Conv2dSpec{1, 0, 1, 1}, rng));
  seq->add(std::make_unique<BatchNorm2d>(channels));
  seq->add(std::make_unique<ReLU>());
  seq->add(std::make_unique<Conv2d>(channels, channels, kernel,
                                    Conv2dSpec{1, pad, 1, channels}, rng));
  seq->add(std::make_unique<Conv2d>(channels, channels, 1,
                                    Conv2dSpec{1, 0, 1, 1}, rng));
  seq->add(std::make_unique<BatchNorm2d>(channels));
  return seq;
}

std::unique_ptr<Module> make_dil_conv(int channels, int kernel, int stride,
                                      Rng& rng) {
  const int dilation = 2;
  const int pad = dilation * (kernel / 2);
  auto seq = std::make_unique<Sequential>();
  seq->add(std::make_unique<ReLU>());
  seq->add(std::make_unique<Conv2d>(
      channels, channels, kernel, Conv2dSpec{stride, pad, dilation, channels},
      rng));
  seq->add(std::make_unique<Conv2d>(channels, channels, 1,
                                    Conv2dSpec{1, 0, 1, 1}, rng));
  seq->add(std::make_unique<BatchNorm2d>(channels));
  return seq;
}

std::unique_ptr<Module> make_factorized_reduce(int cin, int cout, Rng& rng) {
  auto seq = std::make_unique<Sequential>();
  seq->add(std::make_unique<ReLU>());
  seq->add(std::make_unique<Conv2d>(cin, cout, 1, Conv2dSpec{2, 0, 1, 1}, rng));
  seq->add(std::make_unique<BatchNorm2d>(cout));
  return seq;
}

}  // namespace fms
