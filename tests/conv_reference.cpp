#include "tests/conv_reference.h"

namespace fms::testing_ref {

Tensor conv2d_forward_reference(const Tensor& x, const Tensor& w,
                                const Conv2dSpec& spec) {
  FMS_CHECK(x.ndim() == 4 && w.ndim() == 4);
  const int n = x.dim(0), cin = x.dim(1), h = x.dim(2), ww = x.dim(3);
  const int cout = w.dim(0), cin_g = w.dim(1), kh = w.dim(2), kw = w.dim(3);
  const int g = spec.groups;
  FMS_CHECK(cin % g == 0 && cout % g == 0 && cin / g == cin_g);
  const int ho = conv_out_size(h, kh, spec.stride, spec.padding, spec.dilation);
  const int wo = conv_out_size(ww, kw, spec.stride, spec.padding, spec.dilation);
  const int cout_g = cout / g;

  Tensor y({n, cout, ho, wo});
  for (int in = 0; in < n; ++in) {
    for (int gi = 0; gi < g; ++gi) {
      for (int oc = 0; oc < cout_g; ++oc) {
        const int oc_abs = gi * cout_g + oc;
        for (int oh = 0; oh < ho; ++oh) {
          for (int ow = 0; ow < wo; ++ow) {
            float acc = 0.0F;
            for (int ic = 0; ic < cin_g; ++ic) {
              const int ic_abs = gi * cin_g + ic;
              for (int r = 0; r < kh; ++r) {
                const int ih = oh * spec.stride - spec.padding + r * spec.dilation;
                if (ih < 0 || ih >= h) continue;
                for (int c = 0; c < kw; ++c) {
                  const int iw = ow * spec.stride - spec.padding + c * spec.dilation;
                  if (iw < 0 || iw >= ww) continue;
                  acc += x.at4(in, ic_abs, ih, iw) * w.at4(oc_abs, ic, r, c);
                }
              }
            }
            y.at4(in, oc_abs, oh, ow) = acc;
          }
        }
      }
    }
  }
  return y;
}

Conv2dGrads conv2d_backward_reference(const Tensor& x, const Tensor& w,
                                      const Tensor& grad_y,
                                      const Conv2dSpec& spec) {
  const int n = x.dim(0), cin = x.dim(1), h = x.dim(2), ww = x.dim(3);
  const int cout = w.dim(0), cin_g = w.dim(1), kh = w.dim(2), kw = w.dim(3);
  const int g = spec.groups;
  const int ho = grad_y.dim(2), wo = grad_y.dim(3);
  FMS_CHECK(grad_y.dim(0) == n && grad_y.dim(1) == cout);
  const int cout_g = cout / g;

  Conv2dGrads out{Tensor({n, cin, h, ww}), Tensor({cout, cin_g, kh, kw})};
  for (int in = 0; in < n; ++in) {
    for (int gi = 0; gi < g; ++gi) {
      for (int oc = 0; oc < cout_g; ++oc) {
        const int oc_abs = gi * cout_g + oc;
        for (int oh = 0; oh < ho; ++oh) {
          for (int ow = 0; ow < wo; ++ow) {
            const float gy = grad_y.at4(in, oc_abs, oh, ow);
            for (int ic = 0; ic < cin_g; ++ic) {
              const int ic_abs = gi * cin_g + ic;
              for (int r = 0; r < kh; ++r) {
                const int ih = oh * spec.stride - spec.padding + r * spec.dilation;
                if (ih < 0 || ih >= h) continue;
                for (int c = 0; c < kw; ++c) {
                  const int iw = ow * spec.stride - spec.padding + c * spec.dilation;
                  if (iw < 0 || iw >= ww) continue;
                  out.grad_x.at4(in, ic_abs, ih, iw) += gy * w.at4(oc_abs, ic, r, c);
                  out.grad_w.at4(oc_abs, ic, r, c) += gy * x.at4(in, ic_abs, ih, iw);
                }
              }
            }
          }
        }
      }
    }
  }
  return out;
}

}  // namespace fms::testing_ref
