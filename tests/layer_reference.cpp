#include "tests/layer_reference.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace fms::testing_ref {

MaxPoolResult maxpool2d_forward_reference(const Tensor& x, int kernel,
                                          int stride, int padding) {
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int ho = conv_out_size(h, kernel, stride, padding, 1);
  const int wo = conv_out_size(w, kernel, stride, padding, 1);
  MaxPoolResult res{Tensor({n, c, ho, wo}), {}};
  res.argmax.resize(res.y.numel());
  std::size_t oi = 0;
  for (int in = 0; in < n; ++in) {
    for (int ic = 0; ic < c; ++ic) {
      for (int oh = 0; oh < ho; ++oh) {
        for (int ow = 0; ow < wo; ++ow, ++oi) {
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_idx = 0;
          bool found = false;
          for (int r = 0; r < kernel; ++r) {
            const int ih = oh * stride - padding + r;
            if (ih < 0 || ih >= h) continue;
            for (int cc = 0; cc < kernel; ++cc) {
              const int iw = ow * stride - padding + cc;
              if (iw < 0 || iw >= w) continue;
              const float v = x.at4(in, ic, ih, iw);
              if (!found || v > best) {
                best = v;
                best_idx = x.offset4(in, ic, ih, iw);
                found = true;
              }
            }
          }
          res.y[oi] = found ? best : 0.0F;
          res.argmax[oi] = best_idx;
        }
      }
    }
  }
  return res;
}

Tensor maxpool2d_backward_reference(const Tensor& x, const MaxPoolResult& fwd,
                                    const Tensor& grad_y) {
  Tensor grad_x(x.shape());
  FMS_CHECK(grad_y.numel() == fwd.argmax.size());
  for (std::size_t i = 0; i < fwd.argmax.size(); ++i) {
    grad_x[fwd.argmax[i]] += grad_y[i];
  }
  return grad_x;
}

Tensor avgpool2d_forward_reference(const Tensor& x, int kernel, int stride,
                                   int padding) {
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int ho = conv_out_size(h, kernel, stride, padding, 1);
  const int wo = conv_out_size(w, kernel, stride, padding, 1);
  Tensor y({n, c, ho, wo});
  const float inv = 1.0F / static_cast<float>(kernel * kernel);
  for (int in = 0; in < n; ++in) {
    for (int ic = 0; ic < c; ++ic) {
      for (int oh = 0; oh < ho; ++oh) {
        for (int ow = 0; ow < wo; ++ow) {
          float acc = 0.0F;
          for (int r = 0; r < kernel; ++r) {
            const int ih = oh * stride - padding + r;
            if (ih < 0 || ih >= h) continue;
            for (int cc = 0; cc < kernel; ++cc) {
              const int iw = ow * stride - padding + cc;
              if (iw < 0 || iw >= w) continue;
              acc += x.at4(in, ic, ih, iw);
            }
          }
          y.at4(in, ic, oh, ow) = acc * inv;
        }
      }
    }
  }
  return y;
}

Tensor avgpool2d_backward_reference(const Tensor& x, const Tensor& grad_y,
                                    int kernel, int stride, int padding) {
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int ho = grad_y.dim(2), wo = grad_y.dim(3);
  Tensor grad_x(x.shape());
  const float inv = 1.0F / static_cast<float>(kernel * kernel);
  for (int in = 0; in < n; ++in) {
    for (int ic = 0; ic < c; ++ic) {
      for (int oh = 0; oh < ho; ++oh) {
        for (int ow = 0; ow < wo; ++ow) {
          const float gy = grad_y.at4(in, ic, oh, ow) * inv;
          for (int r = 0; r < kernel; ++r) {
            const int ih = oh * stride - padding + r;
            if (ih < 0 || ih >= h) continue;
            for (int cc = 0; cc < kernel; ++cc) {
              const int iw = ow * stride - padding + cc;
              if (iw < 0 || iw >= w) continue;
              grad_x.at4(in, ic, ih, iw) += gy;
            }
          }
        }
      }
    }
  }
  return grad_x;
}

Tensor global_avgpool_forward_reference(const Tensor& x) {
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  Tensor y({n, c});
  const float inv = 1.0F / static_cast<float>(h * w);
  for (int in = 0; in < n; ++in) {
    for (int ic = 0; ic < c; ++ic) {
      float acc = 0.0F;
      for (int ih = 0; ih < h; ++ih)
        for (int iw = 0; iw < w; ++iw) acc += x.at4(in, ic, ih, iw);
      y.at2(in, ic) = acc * inv;
    }
  }
  return y;
}

Tensor global_avgpool_backward_reference(const Tensor& x,
                                         const Tensor& grad_y) {
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  Tensor grad_x(x.shape());
  const float inv = 1.0F / static_cast<float>(h * w);
  for (int in = 0; in < n; ++in) {
    for (int ic = 0; ic < c; ++ic) {
      const float gy = grad_y.at2(in, ic) * inv;
      for (int ih = 0; ih < h; ++ih)
        for (int iw = 0; iw < w; ++iw) grad_x.at4(in, ic, ih, iw) = gy;
    }
  }
  return grad_x;
}

Tensor relu_forward_reference(const Tensor& x) {
  Tensor y = x;
  for (std::size_t i = 0; i < y.numel(); ++i) y[i] = std::max(0.0F, y[i]);
  return y;
}

Tensor relu_backward_reference(const Tensor& x, const Tensor& grad_y) {
  FMS_CHECK(x.same_shape(grad_y));
  Tensor grad_x(x.shape());
  for (std::size_t i = 0; i < x.numel(); ++i) {
    grad_x[i] = x[i] > 0.0F ? grad_y[i] : 0.0F;
  }
  return grad_x;
}

BatchNormTrainReference batchnorm2d_train_forward_reference(
    const Tensor& x, const Tensor& gamma, const Tensor& beta,
    Tensor& running_mean, Tensor& running_var, float eps, float momentum) {
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::size_t m = static_cast<std::size_t>(n) * h * w;
  BatchNormTrainReference out{Tensor(x.shape()), Tensor(x.shape()),
                              std::vector<float>(static_cast<std::size_t>(c))};
  for (int ic = 0; ic < c; ++ic) {
    const auto ci = static_cast<std::size_t>(ic);
    double mean = 0.0;
    for (int in = 0; in < n; ++in)
      for (int ih = 0; ih < h; ++ih)
        for (int iw = 0; iw < w; ++iw) mean += x.at4(in, ic, ih, iw);
    mean /= static_cast<double>(m);
    double var = 0.0;
    for (int in = 0; in < n; ++in)
      for (int ih = 0; ih < h; ++ih)
        for (int iw = 0; iw < w; ++iw) {
          const double d = x.at4(in, ic, ih, iw) - mean;
          var += d * d;
        }
    var /= static_cast<double>(m);
    const float inv_std = 1.0F / std::sqrt(static_cast<float>(var) + eps);
    out.inv_std[ci] = inv_std;
    running_mean[ci] =
        (1.0F - momentum) * running_mean[ci] + momentum * static_cast<float>(mean);
    running_var[ci] =
        (1.0F - momentum) * running_var[ci] + momentum * static_cast<float>(var);
    const float g = gamma[ci];
    const float b = beta[ci];
    for (int in = 0; in < n; ++in)
      for (int ih = 0; ih < h; ++ih)
        for (int iw = 0; iw < w; ++iw) {
          const float xhat =
              (x.at4(in, ic, ih, iw) - static_cast<float>(mean)) * inv_std;
          out.xhat.at4(in, ic, ih, iw) = xhat;
          out.y.at4(in, ic, ih, iw) = g * xhat + b;
        }
  }
  return out;
}

Tensor batchnorm2d_eval_forward_reference(const Tensor& x, const Tensor& gamma,
                                          const Tensor& beta,
                                          const Tensor& running_mean,
                                          const Tensor& running_var, float eps) {
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  Tensor y(x.shape());
  for (int ic = 0; ic < c; ++ic) {
    const auto ci = static_cast<std::size_t>(ic);
    const float mean = running_mean[ci];
    const float inv_std = 1.0F / std::sqrt(running_var[ci] + eps);
    const float g = gamma[ci];
    const float b = beta[ci];
    for (int in = 0; in < n; ++in)
      for (int ih = 0; ih < h; ++ih)
        for (int iw = 0; iw < w; ++iw) {
          y.at4(in, ic, ih, iw) =
              g * (x.at4(in, ic, ih, iw) - mean) * inv_std + b;
        }
  }
  return y;
}

Tensor batchnorm2d_backward_reference(const Tensor& xhat,
                                      const std::vector<float>& inv_std,
                                      const Tensor& gamma,
                                      const Tensor& grad_y, Tensor& grad_gamma,
                                      Tensor& grad_beta) {
  const int n = xhat.dim(0), c = xhat.dim(1), h = xhat.dim(2), w = xhat.dim(3);
  const double m = static_cast<double>(n) * h * w;
  Tensor grad_x(xhat.shape());
  for (int ic = 0; ic < c; ++ic) {
    const auto ci = static_cast<std::size_t>(ic);
    double sum_gy = 0.0, sum_gy_xhat = 0.0;
    for (int in = 0; in < n; ++in)
      for (int ih = 0; ih < h; ++ih)
        for (int iw = 0; iw < w; ++iw) {
          const double gy = grad_y.at4(in, ic, ih, iw);
          sum_gy += gy;
          sum_gy_xhat += gy * xhat.at4(in, ic, ih, iw);
        }
    grad_gamma[ci] += static_cast<float>(sum_gy_xhat);
    grad_beta[ci] += static_cast<float>(sum_gy);
    const float g = gamma[ci];
    const float is = inv_std[ci];
    const float mean_gy = static_cast<float>(sum_gy / m);
    const float mean_gy_xhat = static_cast<float>(sum_gy_xhat / m);
    for (int in = 0; in < n; ++in)
      for (int ih = 0; ih < h; ++ih)
        for (int iw = 0; iw < w; ++iw) {
          const float gy = grad_y.at4(in, ic, ih, iw);
          const float xh = xhat.at4(in, ic, ih, iw);
          grad_x.at4(in, ic, ih, iw) = g * is * (gy - mean_gy - xh * mean_gy_xhat);
        }
  }
  return grad_x;
}

}  // namespace fms::testing_ref
