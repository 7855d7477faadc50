#include "src/tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <utility>

namespace fms {

int conv_out_size(int in, int kernel, int stride, int padding, int dilation) {
  int eff = dilation * (kernel - 1) + 1;
  int out = (in + 2 * padding - eff) / stride + 1;
  FMS_CHECK_MSG(out > 0, "conv output collapsed to zero");
  return out;
}

namespace {

// ---------------------------------------------------------------------
// GEMM behind the conv engine, matmul and matmul_tn. An 8-lane float
// vector from the GCC/Clang vector extension; -march decides what it
// lowers to (one AVX register, two SSE registers, ...).
// ---------------------------------------------------------------------
using Vec8 = float __attribute__((vector_size(32)));
using Vec8i = int __attribute__((vector_size(32)));  // a Vec8 comparison
constexpr int kLanes = 8;

inline Vec8 load8(const float* p) {
  Vec8 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
inline void store8(float* p, Vec8 v) { std::memcpy(p, &v, sizeof(v)); }
inline Vec8 splat8(float s) { return Vec8{s, s, s, s, s, s, s, s}; }
inline Vec8i splat8i(int s) { return Vec8i{s, s, s, s, s, s, s, s}; }

// A strided matrix operand: element (r, c) is p[r * rs + c * cs], so one
// view covers a row-major matrix and its transpose.
struct MatRef {
  const float* p;
  std::ptrdiff_t rs;
  std::ptrdiff_t cs;
};

// Register tile: up to kMr rows of C by up to kNv vectors of columns.
constexpr int kMr = 4;
constexpr int kNv = 2;
constexpr int kNr = kNv * kLanes;

// C[MR x ncols] (+)= A[MR x k] * B[k x NV*8], B rows contiguous at stride
// ldb. Each C element is one lane that starts from C (or zero) and adds
// its k products in order, the summation order of the direct loops.
template <int MR, int NV>
void micro_kernel(int k, MatRef a, const float* b, std::ptrdiff_t ldb,
                  float* c, std::ptrdiff_t ldc, int ncols, bool accumulate) {
  Vec8 acc[MR][NV] = {};
  if (accumulate) {
    for (int i = 0; i < MR; ++i) {
      float tile[NV * kLanes] = {};
      std::copy(c + i * ldc, c + i * ldc + ncols, tile);
      std::memcpy(acc[i], tile, sizeof(tile));
    }
  }
  for (int p = 0; p < k; ++p) {
    Vec8 bv[NV];
    for (int j = 0; j < NV; ++j) bv[j] = load8(b + p * ldb + std::ptrdiff_t{j} * kLanes);
    for (int i = 0; i < MR; ++i) {
      const Vec8 av = splat8(a.p[i * a.rs + p * a.cs]);
      for (int j = 0; j < NV; ++j) acc[i][j] += av * bv[j];
    }
  }
  for (int i = 0; i < MR; ++i) {
    float tile[NV * kLanes];
    std::memcpy(tile, acc[i], sizeof(tile));
    std::copy(tile, tile + ncols, c + i * ldc);
  }
}

using MicroKernel = void (*)(int, MatRef, const float*, std::ptrdiff_t,
                             float*, std::ptrdiff_t, int, bool);
constexpr MicroKernel kMicroKernels[kMr][kNv] = {
    {micro_kernel<1, 1>, micro_kernel<1, 2>},
    {micro_kernel<2, 1>, micro_kernel<2, 2>},
    {micro_kernel<3, 1>, micro_kernel<3, 2>},
    {micro_kernel<4, 1>, micro_kernel<4, 2>}};

// C[m x n] (+)= A[m x k] * B[k x n]; C is row-major with leading
// dimension ldc. B panels that are transposed or ragged are packed into
// `panel`, a caller-owned buffer reused across calls.
void gemm(int m, int n, int k, MatRef a, MatRef b, float* c,
          std::ptrdiff_t ldc, bool accumulate, std::vector<float>& panel) {
  for (int j0 = 0; j0 < n; j0 += kNr) {
    const int ncols = std::min(kNr, n - j0);
    const int nv = (ncols + kLanes - 1) / kLanes;
    const float* bp = b.p + j0 * b.cs;
    std::ptrdiff_t ldb = b.rs;
    if (b.cs != 1 || ncols % kLanes != 0) {
      const int width = nv * kLanes;
      panel.assign(static_cast<std::size_t>(k) * width, 0.0F);
      for (int j = 0; j < ncols; ++j)
        for (int p = 0; p < k; ++p)
          panel[static_cast<std::size_t>(p) * width + j] =
              bp[p * b.rs + j * b.cs];
      bp = panel.data();
      ldb = width;
    }
    for (int i0 = 0; i0 < m; i0 += kMr) {
      const int mr = std::min(kMr, m - i0);
      kMicroKernels[mr - 1][nv - 1](k, MatRef{a.p + i0 * a.rs, a.rs, a.cs},
                                    bp, ldb, c + i0 * ldc + j0, ldc, ncols,
                                    accumulate);
    }
  }
}

// ---------------------------------------------------------------------
// Conv engine. Every path adds each output's (and each gradient's) terms
// in the order of the direct loops in tests/conv_reference.cpp, so the
// paths change speed, not results.
// ---------------------------------------------------------------------
struct ConvShape {
  int n, cin, h, w;
  int cout, kh, kw;
  int ho, wo;
  int groups, cin_g, cout_g;
  int stride, pad, dil;
};

ConvShape conv_shape(const Tensor& x, const Tensor& w, const Conv2dSpec& spec) {
  FMS_CHECK(x.ndim() == 4 && w.ndim() == 4);
  ConvShape s{};
  s.n = x.dim(0), s.cin = x.dim(1), s.h = x.dim(2), s.w = x.dim(3);
  s.cout = w.dim(0), s.cin_g = w.dim(1), s.kh = w.dim(2), s.kw = w.dim(3);
  s.groups = spec.groups;
  s.stride = spec.stride, s.pad = spec.padding, s.dil = spec.dilation;
  FMS_CHECK_MSG(s.cin % s.groups == 0 && s.cout % s.groups == 0 &&
                    s.cin / s.groups == s.cin_g,
                "channel/group mismatch: cin=" << s.cin << " cout=" << s.cout
                                               << " groups=" << s.groups);
  s.cout_g = s.cout / s.groups;
  s.ho = conv_out_size(s.h, s.kh, s.stride, s.pad, s.dil);
  s.wo = conv_out_size(s.w, s.kw, s.stride, s.pad, s.dil);
  return s;
}

// Output positions o in [0, out) with 0 <= o * stride + offset < in.
std::pair<int, int> valid_range(int out, int in, int stride, int offset) {
  const int lo = offset >= 0 ? 0 : (stride - 1 - offset) / stride;
  const int hi = std::min(out, offset >= in ? 0 : (in - 1 - offset) / stride + 1);
  return {std::min(lo, hi), hi};
}

int round_up_lanes(std::ptrdiff_t n) {
  return static_cast<int>((n + kLanes - 1) / kLanes * kLanes);
}

// Padded-plane geometry of the depthwise kernel and of the im2col path's
// grad_x. An input plane is copied into a zero-padded buffer whose rows
// are `pitch` long: input (ih, iw) sits at origin + ih * pitch + iw, and
// output (oh, ow) at q = oh * pitch + ow reads tap (r, c) at
// stride * q + offset with no bounds test. Positions with ow >= wo are
// computed and dropped. Taps that read only padding for every output
// add nothing and are left out, which on 2x2 planes drops most of a 5x5
// kernel.
struct PlaneGeometry {
  struct Tap {
    std::ptrdiff_t offset;  // r * dil * pitch + c * dil
    int weight;             // r * kw + c
  };

  explicit PlaneGeometry(const ConvShape& s)
      : pitch(s.w + 2 * s.pad),
        out_span(round_up_lanes(static_cast<std::ptrdiff_t>(s.ho) * pitch)),
        in_span(round_up_lanes(static_cast<std::ptrdiff_t>(s.h + 2 * s.pad) * pitch)),
        origin(static_cast<std::ptrdiff_t>(s.pad) * pitch + s.pad) {
    for (int r = 0; r < s.kh; ++r) {
      const auto [rlo, rhi] = valid_range(s.ho, s.h, s.stride, r * s.dil - s.pad);
      for (int c = 0; c < s.kw; ++c) {
        const auto [clo, chi] = valid_range(s.wo, s.w, s.stride, c * s.dil - s.pad);
        if (rlo == rhi || clo == chi) continue;
        taps.push_back({(std::ptrdiff_t{r} * pitch + c) * s.dil, r * s.kw + c});
        reach = taps.back().offset;
      }
    }
    padded = static_cast<std::size_t>(std::max<std::ptrdiff_t>(
        in_span, static_cast<std::ptrdiff_t>(s.stride) * (out_span - 1) + reach + 1));
    dilated = static_cast<std::size_t>(reach + in_span);
  }
  int pitch;                  // padded row length
  int out_span;               // q positions computed per output plane
  int in_span;                // positions computed per padded input plane
  std::ptrdiff_t origin;      // offset of input pixel (0, 0)
  std::ptrdiff_t reach = 0;   // largest tap offset
  std::size_t padded = 0;     // padded input buffer; every read fits
  std::size_t dilated = 0;    // spread-out grad_y buffer, see to_pitched
  std::vector<Tap> taps;      // in (r, c) order
};

// Copies a rows x cols plane to every `step`-th position of a buffer
// with row length `pitch` (step = stride spreads grad_y out so that
// grad_x is a gather), or back out of a pitched buffer.
void to_pitched(const float* src, int rows, int cols, int pitch, int step,
                float* dst) {
  for (int r = 0; r < rows; ++r, src += cols) {
    float* row = dst + static_cast<std::ptrdiff_t>(r) * pitch * step;
    if (step == 1) {
      std::copy(src, src + cols, row);
    } else {
      for (int c = 0; c < cols; ++c) row[std::ptrdiff_t{c} * step] = src[c];
    }
  }
}
void from_pitched(const float* src, int rows, int cols, int pitch, float* dst) {
  for (int r = 0; r < rows; ++r, src += pitch, dst += cols)
    std::copy(src, src + cols, dst);
}

template <bool kUnitStride>
Vec8 load_lanes(const float* p, int stride) {
  if constexpr (kUnitStride) {
    return load8(p);
  } else {
    Vec8 v = {};
    for (int i = 0; i < kLanes; ++i) v[i] = p[std::ptrdiff_t{i} * stride];
    return v;
  }
}

// Vectors of positions worked on together: independent sums that hide
// the latency of each lane's in-order chain.
constexpr int kChunks = 4;

// Runs body.template operator()<B>(p) over [0, span) in blocks of
// kChunks vectors, then single vectors.
template <typename Body>
void for_each_block(int span, Body&& body) {
  int p = 0;
  for (; p + kChunks * kLanes <= span; p += kChunks * kLanes)
    body.template operator()<kChunks>(p);
  for (; p < span; p += kLanes) body.template operator()<1>(p);
}

// One depthwise output plane at every q: the taps in order, one output
// per lane.
template <bool kUnitStride>
void depthwise_plane_forward(const float* xp, const float* wt, int stride,
                             const PlaneGeometry& g, float* yq) {
  for_each_block(g.out_span, [&]<int B>(int q) {
    Vec8 acc[B] = {};
    for (const PlaneGeometry::Tap& t : g.taps) {
      const Vec8 wv = splat8(wt[t.weight]);
      const float* base = xp + static_cast<std::ptrdiff_t>(stride) * q + t.offset;
      for (int j = 0; j < B; ++j)
        acc[j] += wv * load_lanes<kUnitStride>(base + std::ptrdiff_t{j} * kLanes * stride,
                                               stride);
    }
    for (int j = 0; j < B; ++j) store8(yq + q + std::ptrdiff_t{j} * kLanes, acc[j]);
  });
}

// grad_x at every position of a padded input plane, gathered from
// `channels` spread-out grad_y planes (`gyd`, `plane` floats apart, each
// starting `reach` zeros in) through their taps of `wt` (`wt_stride`
// apart). Output channels run outer and taps last to first, i.e. by
// ascending output position: the direct loops' order.
void gather_grad_x(const float* gyd, std::size_t plane, int channels,
                   const float* wt, std::ptrdiff_t wt_stride,
                   const PlaneGeometry& g, float* gxp) {
  for_each_block(g.in_span, [&]<int B>(int p) {
    Vec8 acc[B] = {};
    for (int oc = 0; oc < channels; ++oc) {
      const float* src = gyd + oc * plane + g.reach + p;
      const float* w = wt + oc * wt_stride;
      for (auto t = g.taps.rbegin(); t != g.taps.rend(); ++t) {
        const Vec8 wv = splat8(w[t->weight]);
        for (int j = 0; j < B; ++j)
          acc[j] += wv * load8(src - t->offset + std::ptrdiff_t{j} * kLanes);
      }
    }
    for (int j = 0; j < B; ++j) store8(gxp + p + std::ptrdiff_t{j} * kLanes, acc[j]);
  });
}

// Interleaves `lanes` planes of rows x cols (`plane` floats apart) into
// dst, row length `pitch`: dst[(r * pitch + c) * kLanes + lane].
void interleave(const float* src, std::ptrdiff_t plane, int lanes, int rows,
                int cols, int pitch, float* dst) {
  for (int lane = 0; lane < lanes; ++lane, src += plane) {
    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c < cols; ++c) {
        dst[(static_cast<std::ptrdiff_t>(r) * pitch + c) * kLanes + lane] =
            src[std::ptrdiff_t{r} * cols + c];
      }
    }
  }
}

// Adds the grad_w terms of up to kLanes channels of one sample, one
// channel per lane: x8 holds their padded planes and gy8 their grad_y
// planes, interleaved. Each tap adds its terms by ascending output
// position; four taps share a pass to hide the add latency.
void depthwise_block_grad_w(const float* x8, const float* gy8, int lanes,
                            const ConvShape& s, const PlaneGeometry& g,
                            float* gw) {
  constexpr int kTapBlock = 4;
  const std::ptrdiff_t kk = std::ptrdiff_t{s.kh} * s.kw;
  for (std::size_t t0 = 0; t0 < g.taps.size(); t0 += kTapBlock) {
    const std::size_t nt = std::min<std::size_t>(kTapBlock, g.taps.size() - t0);
    Vec8 acc[kTapBlock] = {};
    std::ptrdiff_t offs[kTapBlock] = {};
    for (std::size_t j = 0; j < nt; ++j) {
      offs[j] = g.taps[t0 + j].offset;
      for (int lane = 0; lane < lanes; ++lane)
        acc[j][lane] = gw[lane * kk + g.taps[t0 + j].weight];
    }
    for (int oh = 0; oh < s.ho; ++oh) {
      for (int ow = 0; ow < s.wo; ++ow) {
        const Vec8 gv = load8(gy8 + static_cast<std::ptrdiff_t>(oh * s.wo + ow) * kLanes);
        const std::ptrdiff_t sq =
            static_cast<std::ptrdiff_t>(s.stride) * (oh * g.pitch + ow);
        for (int j = 0; j < kTapBlock; ++j)
          acc[j] += gv * load8(x8 + (sq + offs[j]) * kLanes);
      }
    }
    for (std::size_t j = 0; j < nt; ++j) {
      for (int lane = 0; lane < lanes; ++lane)
        gw[lane * kk + g.taps[t0 + j].weight] = acc[j][lane];
    }
  }
}

// ---------------------------------------------------------------------
// Pointwise and im2col paths: per sample and group, y = W * cols, where
// cols is the input itself (pointwise) or its im2col matrix
// cols[(ic * kh + r) * kw + c][oh * wo + ow].
// ---------------------------------------------------------------------
void im2col(const float* x, const ConvShape& s, float* cols) {
  for (int ic = 0; ic < s.cin_g; ++ic) {
    for (int r = 0; r < s.kh; ++r) {
      for (int c = 0; c < s.kw; ++c) {
        const int off = c * s.dil - s.pad;
        const auto [lo, hi] = valid_range(s.wo, s.w, s.stride, off);
        for (int oh = 0; oh < s.ho; ++oh, cols += s.wo) {
          const int ih = oh * s.stride - s.pad + r * s.dil;
          if (ih < 0 || ih >= s.h) {
            std::fill(cols, cols + s.wo, 0.0F);
            continue;
          }
          const float* src = x + (static_cast<std::ptrdiff_t>(ic) * s.h + ih) * s.w;
          std::fill(cols, cols + lo, 0.0F);
          for (int ow = lo; ow < hi; ++ow)
            cols[ow] = src[std::ptrdiff_t{ow} * s.stride + off];
          std::fill(cols + hi, cols + s.wo, 0.0F);
        }
      }
    }
  }
}

Tensor gemm_conv_forward(const Tensor& x, const Tensor& w, const ConvShape& s,
                         bool pointwise) {
  const int k = s.cin_g * s.kh * s.kw, p = s.ho * s.wo;
  Tensor y({s.n, s.cout, s.ho, s.wo});
  std::vector<float> cols(pointwise ? 0 : static_cast<std::size_t>(k) * p);
  std::vector<float> panel;
  for (int in = 0; in < s.n; ++in) {
    for (int g = 0; g < s.groups; ++g) {
      const float* b = x.data() + x.offset4(in, g * s.cin_g, 0, 0);
      if (!pointwise) {
        im2col(b, s, cols.data());
        b = cols.data();
      }
      gemm(s.cout_g, p, k, MatRef{w.data() + w.offset4(g * s.cout_g, 0, 0, 0), k, 1},
           MatRef{b, p, 1}, y.data() + y.offset4(in, g * s.cout_g, 0, 0), p,
           /*accumulate=*/false, panel);
    }
  }
  return y;
}

// grad_w += grad_y * cols^T by GEMM. grad_x = W^T * grad_y by GEMM when
// pointwise; otherwise gathered through the taps on padded planes.
Conv2dGrads gemm_conv_backward(const Tensor& x, const Tensor& w,
                               const Tensor& grad_y, const ConvShape& s,
                               bool pointwise) {
  const int k = s.cin_g * s.kh * s.kw, p = s.ho * s.wo;
  Conv2dGrads out{Tensor({s.n, s.cin, s.h, s.w}), Tensor(w.shape())};
  std::vector<float> cols;
  std::vector<float> panel;
  std::vector<float> gyd;
  std::vector<float> gxp;
  const PlaneGeometry geo(s);
  if (!pointwise) {
    cols.resize(static_cast<std::size_t>(k) * p);
    gyd.assign(geo.dilated * s.cout_g, 0.0F);
    gxp.resize(static_cast<std::size_t>(geo.in_span));
  }
  for (int in = 0; in < s.n; ++in) {
    for (int g = 0; g < s.groups; ++g) {
      const float* xg = x.data() + x.offset4(in, g * s.cin_g, 0, 0);
      const float* gyg = grad_y.data() + grad_y.offset4(in, g * s.cout_g, 0, 0);
      const float* wg = w.data() + w.offset4(g * s.cout_g, 0, 0, 0);
      float* gxg = out.grad_x.data() + out.grad_x.offset4(in, g * s.cin_g, 0, 0);
      if (!pointwise) {
        im2col(xg, s, cols.data());
        xg = cols.data();
      }
      gemm(s.cout_g, k, p, MatRef{gyg, p, 1}, MatRef{xg, 1, p},
           out.grad_w.data() + w.offset4(g * s.cout_g, 0, 0, 0), k,
           /*accumulate=*/true, panel);
      if (pointwise) {
        gemm(k, p, s.cout_g, MatRef{wg, 1, k}, MatRef{gyg, p, 1}, gxg, p,
             /*accumulate=*/false, panel);
        continue;
      }
      for (int oc = 0; oc < s.cout_g; ++oc) {
        to_pitched(gyg + static_cast<std::ptrdiff_t>(oc) * p, s.ho, s.wo,
                   geo.pitch, s.stride, gyd.data() + oc * geo.dilated + geo.reach);
      }
      const std::ptrdiff_t kk = std::ptrdiff_t{s.kh} * s.kw;
      for (int ic = 0; ic < s.cin_g; ++ic) {
        gather_grad_x(gyd.data(), geo.dilated, s.cout_g, wg + ic * kk,
                      s.cin_g * kk, geo, gxp.data());
        from_pitched(gxp.data() + geo.origin, s.h, s.w, geo.pitch,
                     gxg + static_cast<std::ptrdiff_t>(ic) * s.h * s.w);
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------
// Depthwise path (groups == C_in == C_out): a direct kernel per plane
// over the padded-plane geometry, vectorized across output positions.
// ---------------------------------------------------------------------
Tensor depthwise_forward(const Tensor& x, const Tensor& w, const ConvShape& s) {
  const PlaneGeometry g(s);
  const std::ptrdiff_t kk = std::ptrdiff_t{s.kh} * s.kw;
  const auto kernel = s.stride == 1 ? depthwise_plane_forward<true>
                                    : depthwise_plane_forward<false>;
  Tensor y({s.n, s.cout, s.ho, s.wo});
  std::vector<float> xp(g.padded, 0.0F);
  std::vector<float> yq(static_cast<std::size_t>(g.out_span));
  for (int in = 0; in < s.n; ++in) {
    for (int c = 0; c < s.cin; ++c) {
      to_pitched(x.data() + x.offset4(in, c, 0, 0), s.h, s.w, g.pitch, 1,
                 xp.data() + g.origin);
      kernel(xp.data(), w.data() + c * kk, s.stride, g, yq.data());
      from_pitched(yq.data(), s.ho, s.wo, g.pitch, y.data() + y.offset4(in, c, 0, 0));
    }
  }
  return y;
}

Conv2dGrads depthwise_backward(const Tensor& x, const Tensor& w,
                               const Tensor& grad_y, const ConvShape& s) {
  const PlaneGeometry g(s);
  const std::ptrdiff_t kk = std::ptrdiff_t{s.kh} * s.kw;
  const std::ptrdiff_t in_plane = static_cast<std::ptrdiff_t>(s.h) * s.w;
  const std::ptrdiff_t out_plane = static_cast<std::ptrdiff_t>(s.ho) * s.wo;
  Conv2dGrads out{Tensor(x.shape()), Tensor(w.shape())};
  std::vector<float> gyd(g.dilated, 0.0F);
  std::vector<float> gxp(static_cast<std::size_t>(g.in_span));
  std::vector<float> x8(g.padded * kLanes, 0.0F);
  std::vector<float> gy8(static_cast<std::size_t>(out_plane) * kLanes);
  for (int in = 0; in < s.n; ++in) {
    const float* xn = x.data() + x.offset4(in, 0, 0, 0);
    const float* gyn = grad_y.data() + grad_y.offset4(in, 0, 0, 0);
    for (int c = 0; c < s.cin; ++c) {
      to_pitched(gyn + c * out_plane, s.ho, s.wo, g.pitch, s.stride,
                 gyd.data() + g.reach);
      gather_grad_x(gyd.data(), 0, 1, w.data() + c * kk, 0, g, gxp.data());
      from_pitched(gxp.data() + g.origin, s.h, s.w, g.pitch,
                   out.grad_x.data() + out.grad_x.offset4(in, c, 0, 0));
    }
    for (int c0 = 0; c0 < s.cin; c0 += kLanes) {
      const int lanes = std::min(kLanes, s.cin - c0);
      interleave(xn + c0 * in_plane, in_plane, lanes, s.h, s.w, g.pitch,
                 x8.data() + g.origin * kLanes);
      interleave(gyn + c0 * out_plane, out_plane, lanes, s.ho, s.wo, s.wo,
                 gy8.data());
      depthwise_block_grad_w(x8.data(), gy8.data(), lanes, s, g,
                             out.grad_w.data() + c0 * kk);
    }
  }
  return out;
}

// ---------------------------------------------------------------------
// Pooling. Each output clips its window to the plane once: kernel rows
// and columns [lo, hi) are the taps that land inside it, visited in
// (r, c) order like the direct loops kept as the test oracle
// (tests/layer_reference.cpp), with no bounds test per tap. Planes (one
// per (n, c)) run kLanes at a time, interleaved one plane per lane, so
// every lane shares the window's tap range.
// ---------------------------------------------------------------------

// Output o's window starts at input o * stride - padding; its taps
// [lo, hi) land inside [0, in).
struct TapSpan {
  int start, lo, hi;
};

TapSpan tap_span(int o, int in, int kernel, int stride, int padding) {
  const int start = o * stride - padding;
  const int lo = std::max(0, -start);
  const int hi = std::min(kernel, in - start);
  return {start, std::min(lo, hi), hi};
}

struct PoolWindow {
  TapSpan row, col;
  int w;  // input row length

  bool empty() const { return row.lo == row.hi || col.lo == col.hi; }
  int first() const { return (row.start + row.lo) * w + col.start + col.lo; }
  // tap(i) for the input position i of every valid tap, in (r, c) order.
  template <typename Tap>
  void for_each_tap(Tap&& tap) const {
    for (int r = row.lo; r < row.hi; ++r)
      for (int c = col.lo; c < col.hi; ++c) tap((row.start + r) * w + col.start + c);
  }
};

struct PoolGeometry {
  PoolGeometry(const std::vector<int>& x_shape, int kernel, int stride,
               int padding) {
    FMS_CHECK(x_shape.size() == 4);
    planes = x_shape[0] * x_shape[1];
    w = x_shape[3];
    ho = conv_out_size(x_shape[2], kernel, stride, padding, 1);
    wo = conv_out_size(w, kernel, stride, padding, 1);
    in_plane = x_shape[2] * w;
    out_plane = ho * wo;
    for (int oh = 0; oh < ho; ++oh)
      rows.push_back(tap_span(oh, x_shape[2], kernel, stride, padding));
    for (int ow = 0; ow < wo; ++ow)
      cols.push_back(tap_span(ow, w, kernel, stride, padding));
  }

  // window(q, win) for every output position q = oh * wo + ow.
  template <typename Window>
  void for_each_window(Window&& window) const {
    for (int oh = 0; oh < ho; ++oh)
      for (int ow = 0; ow < wo; ++ow)
        window(oh * wo + ow, PoolWindow{rows[oh], cols[ow], w});
  }

  int planes, w, ho, wo, in_plane, out_plane;
  std::vector<TapSpan> rows, cols;  // per oh / per ow
};

// Inverse of interleave() over one row of `positions`: lane `lane` of
// position q goes to dst[lane * positions + q].
template <typename T>
void deinterleave(const T* src, int lanes, int positions, T* dst) {
  for (int lane = 0; lane < lanes; ++lane, dst += positions) {
    for (int q = 0; q < positions; ++q)
      dst[q] = src[static_cast<std::ptrdiff_t>(q) * kLanes + lane];
  }
}

}  // namespace

ConvPath conv_path(int cin, int cout, int kh, int kw, const Conv2dSpec& spec) {
  if (spec.groups == cin && cin == cout) return ConvPath::kDepthwise;
  if (kh == 1 && kw == 1 && spec.stride == 1 && spec.padding == 0)
    return ConvPath::kPointwise;
  return ConvPath::kIm2col;
}

Tensor conv2d_forward(const Tensor& x, const Tensor& w,
                      const Conv2dSpec& spec) {
  const ConvShape s = conv_shape(x, w, spec);
  const ConvPath path = conv_path(s.cin, s.cout, s.kh, s.kw, spec);
  if (path == ConvPath::kDepthwise) return depthwise_forward(x, w, s);
  return gemm_conv_forward(x, w, s, path == ConvPath::kPointwise);
}

Conv2dGrads conv2d_backward(const Tensor& x, const Tensor& w,
                            const Tensor& grad_y, const Conv2dSpec& spec) {
  const ConvShape s = conv_shape(x, w, spec);
  FMS_CHECK(grad_y.ndim() == 4 && grad_y.dim(0) == s.n &&
            grad_y.dim(1) == s.cout && grad_y.dim(2) == s.ho &&
            grad_y.dim(3) == s.wo);
  const ConvPath path = conv_path(s.cin, s.cout, s.kh, s.kw, spec);
  if (path == ConvPath::kDepthwise) return depthwise_backward(x, w, grad_y, s);
  return gemm_conv_backward(x, w, grad_y, s, path == ConvPath::kPointwise);
}

MaxPoolResult maxpool2d_forward(const Tensor& x, int kernel, int stride,
                                int padding) {
  const PoolGeometry g(x.shape(), kernel, stride, padding);
  MaxPoolResult res{Tensor({x.dim(0), x.dim(1), g.ho, g.wo}), {}};
  res.argmax.resize(res.y.numel());
  std::vector<float> xi(static_cast<std::size_t>(g.in_plane) * kLanes);
  std::vector<float> yi(static_cast<std::size_t>(g.out_plane) * kLanes);
  std::vector<int> ai(yi.size());
  for (int p0 = 0; p0 < g.planes; p0 += kLanes) {
    const int lanes = std::min(kLanes, g.planes - p0);
    interleave(x.data() + static_cast<std::ptrdiff_t>(p0) * g.in_plane,
               g.in_plane, lanes, 1, g.in_plane, g.in_plane, xi.data());
    g.for_each_window([&](int q, const PoolWindow& win) {
      // The first valid tap seeds the max; a strict > keeps the first of
      // tied taps and lets a NaN seed stick. A window of padding only
      // gives 0 with argmax 0 (marked -1 until written back).
      Vec8 best = {};
      Vec8i idx = splat8i(-1);
      if (!win.empty()) {
        best = load8(xi.data() + static_cast<std::ptrdiff_t>(win.first()) * kLanes);
        idx = splat8i(win.first());
        win.for_each_tap([&](int i) {
          const Vec8 v = load8(xi.data() + static_cast<std::ptrdiff_t>(i) * kLanes);
          const Vec8i gt = v > best;
          best = gt ? v : best;
          idx = gt ? splat8i(i) : idx;
        });
      }
      store8(yi.data() + static_cast<std::ptrdiff_t>(q) * kLanes, best);
      std::memcpy(ai.data() + static_cast<std::ptrdiff_t>(q) * kLanes, &idx,
                  sizeof(idx));
    });
    const std::ptrdiff_t out0 = static_cast<std::ptrdiff_t>(p0) * g.out_plane;
    deinterleave(yi.data(), lanes, g.out_plane, res.y.data() + out0);
    for (int lane = 0; lane < lanes; ++lane) {
      const std::size_t plane =
          static_cast<std::size_t>(p0 + lane) * static_cast<std::size_t>(g.in_plane);
      for (int q = 0; q < g.out_plane; ++q) {
        const int i = ai[static_cast<std::size_t>(q) * kLanes + lane];
        res.argmax[static_cast<std::size_t>(out0 + std::ptrdiff_t{lane} * g.out_plane + q)] =
            i < 0 ? 0 : plane + static_cast<std::size_t>(i);
      }
    }
  }
  return res;
}

Tensor maxpool2d_backward(const std::vector<int>& x_shape,
                          const MaxPoolResult& fwd, const Tensor& grad_y) {
  Tensor grad_x(x_shape);
  FMS_CHECK(grad_y.numel() == fwd.argmax.size());
  float* gx = grad_x.data();
  const float* gy = grad_y.data();
  for (std::size_t i = 0; i < fwd.argmax.size(); ++i) gx[fwd.argmax[i]] += gy[i];
  return grad_x;
}

Tensor avgpool2d_forward(const Tensor& x, int kernel, int stride, int padding) {
  const PoolGeometry g(x.shape(), kernel, stride, padding);
  Tensor y({x.dim(0), x.dim(1), g.ho, g.wo});
  // count_include_pad=True semantics (matches PyTorch default used by
  // DARTS): divide by the full window size.
  const Vec8 inv = splat8(1.0F / static_cast<float>(kernel * kernel));
  std::vector<float> xi(static_cast<std::size_t>(g.in_plane) * kLanes);
  std::vector<float> yi(static_cast<std::size_t>(g.out_plane) * kLanes);
  for (int p0 = 0; p0 < g.planes; p0 += kLanes) {
    const int lanes = std::min(kLanes, g.planes - p0);
    interleave(x.data() + static_cast<std::ptrdiff_t>(p0) * g.in_plane,
               g.in_plane, lanes, 1, g.in_plane, g.in_plane, xi.data());
    g.for_each_window([&](int q, const PoolWindow& win) {
      Vec8 acc = {};
      win.for_each_tap([&](int i) {
        acc += load8(xi.data() + static_cast<std::ptrdiff_t>(i) * kLanes);
      });
      store8(yi.data() + static_cast<std::ptrdiff_t>(q) * kLanes, acc * inv);
    });
    deinterleave(yi.data(), lanes, g.out_plane,
                 y.data() + static_cast<std::ptrdiff_t>(p0) * g.out_plane);
  }
  return y;
}

Tensor avgpool2d_backward(const std::vector<int>& x_shape, const Tensor& grad_y,
                          int kernel, int stride, int padding) {
  const PoolGeometry g(x_shape, kernel, stride, padding);
  FMS_CHECK(grad_y.numel() ==
            static_cast<std::size_t>(g.planes) * static_cast<std::size_t>(g.out_plane));
  Tensor grad_x(x_shape);
  const Vec8 inv = splat8(1.0F / static_cast<float>(kernel * kernel));
  std::vector<float> gyi(static_cast<std::size_t>(g.out_plane) * kLanes);
  std::vector<float> gxi(static_cast<std::size_t>(g.in_plane) * kLanes);
  for (int p0 = 0; p0 < g.planes; p0 += kLanes) {
    const int lanes = std::min(kLanes, g.planes - p0);
    interleave(grad_y.data() + static_cast<std::ptrdiff_t>(p0) * g.out_plane,
               g.out_plane, lanes, 1, g.out_plane, g.out_plane, gyi.data());
    std::fill(gxi.begin(), gxi.end(), 0.0F);
    // Outputs in order, each adding its share to its taps in (r, c)
    // order: every grad_x element sums in the direct loops' order.
    g.for_each_window([&](int q, const PoolWindow& win) {
      const Vec8 gv = load8(gyi.data() + static_cast<std::ptrdiff_t>(q) * kLanes) * inv;
      win.for_each_tap([&](int i) {
        float* p = gxi.data() + static_cast<std::ptrdiff_t>(i) * kLanes;
        store8(p, load8(p) + gv);
      });
    });
    deinterleave(gxi.data(), lanes, g.in_plane,
                 grad_x.data() + static_cast<std::ptrdiff_t>(p0) * g.in_plane);
  }
  return grad_x;
}

// One in-order chain per plane; consecutive planes' chains are
// independent, so they overlap in the core.
Tensor global_avgpool_forward(const Tensor& x) {
  FMS_CHECK(x.ndim() == 4);
  const int planes = x.dim(0) * x.dim(1), hw = x.dim(2) * x.dim(3);
  Tensor y({x.dim(0), x.dim(1)});
  const float inv = 1.0F / static_cast<float>(hw);
  const float* xp = x.data();
  for (int p = 0; p < planes; ++p, xp += hw) {
    float acc = 0.0F;
    for (int i = 0; i < hw; ++i) acc += xp[i];
    y[static_cast<std::size_t>(p)] = acc * inv;
  }
  return y;
}

Tensor global_avgpool_backward(const std::vector<int>& x_shape,
                               const Tensor& grad_y) {
  FMS_CHECK(x_shape.size() == 4);
  Tensor grad_x(x_shape);
  const std::ptrdiff_t hw = std::ptrdiff_t{x_shape[2]} * x_shape[3];
  FMS_CHECK(grad_y.numel() * static_cast<std::size_t>(hw) == grad_x.numel());
  const float inv = 1.0F / static_cast<float>(hw);
  float* gx = grad_x.data();
  for (std::size_t p = 0; p < grad_y.numel(); ++p, gx += hw)
    std::fill(gx, gx + hw, grad_y[p] * inv);
  return grad_x;
}

Tensor relu_forward(const Tensor& x) {
  Tensor y(x.shape());
  const float* xp = x.data();
  float* yp = y.data();
  for (std::size_t i = 0; i < x.numel(); ++i) yp[i] = std::max(0.0F, xp[i]);
  return y;
}

// grad_y is loaded unconditionally so that the select vectorizes; a
// branch on the sign of x mispredicts on every other element.
Tensor relu_backward(const Tensor& x, const Tensor& grad_y) {
  FMS_CHECK(x.same_shape(grad_y));
  Tensor grad_x(x.shape());
  const float* xp = x.data();
  const float* gy = grad_y.data();
  float* gx = grad_x.data();
  for (std::size_t i = 0; i < x.numel(); ++i) {
    const float g = gy[i];
    gx[i] = xp[i] > 0.0F ? g : 0.0F;
  }
  return grad_x;
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  FMS_CHECK(a.ndim() == 2 && b.ndim() == 2 && a.dim(1) == b.dim(0));
  const int m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  std::vector<float> panel;
  gemm(m, n, k, MatRef{a.data(), k, 1}, MatRef{b.data(), n, 1}, c.data(), n,
       /*accumulate=*/false, panel);
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  FMS_CHECK(a.ndim() == 2 && b.ndim() == 2 && a.dim(0) == b.dim(0));
  const int k = a.dim(0), m = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  std::vector<float> panel;
  gemm(m, n, k, MatRef{a.data(), 1, m}, MatRef{b.data(), n, 1}, c.data(), n,
       /*accumulate=*/false, panel);
  return c;
}

// Kept as a direct loop: GCC vectorizes its products and adds them in
// order unfused, which the GEMM's fused multiply-adds do not reproduce;
// routing it through the GEMM would move every search trajectory by that
// rounding.
Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  FMS_CHECK(a.ndim() == 2 && b.ndim() == 2 && a.dim(1) == b.dim(1));
  const int m = a.dim(0), k = a.dim(1), n = b.dim(0);
  Tensor c({m, n});
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float acc = 0.0F;
      for (int kk = 0; kk < k; ++kk) acc += a.at2(i, kk) * b.at2(j, kk);
      c.at2(i, j) = acc;
    }
  }
  return c;
}

Tensor concat_channels(const std::vector<Tensor>& parts) {
  FMS_CHECK(!parts.empty());
  const int n = parts[0].dim(0), h = parts[0].dim(2), w = parts[0].dim(3);
  int c_total = 0;
  for (const auto& p : parts) {
    FMS_CHECK(p.ndim() == 4 && p.dim(0) == n && p.dim(2) == h && p.dim(3) == w);
    c_total += p.dim(1);
  }
  Tensor y({n, c_total, h, w});
  for (int in = 0; in < n; ++in) {
    int c_off = 0;
    for (const auto& p : parts) {
      const int c = p.dim(1);
      const std::size_t block = static_cast<std::size_t>(c) * h * w;
      const float* src = p.data() + p.offset4(in, 0, 0, 0);
      float* dst = y.data() + y.offset4(in, c_off, 0, 0);
      std::copy(src, src + block, dst);
      c_off += c;
    }
  }
  return y;
}

std::vector<Tensor> split_channels(const Tensor& x, int groups) {
  FMS_CHECK(x.ndim() == 4 && x.dim(1) % groups == 0);
  const int n = x.dim(0), c = x.dim(1) / groups, h = x.dim(2), w = x.dim(3);
  std::vector<Tensor> parts;
  parts.reserve(static_cast<std::size_t>(groups));
  for (int g = 0; g < groups; ++g) {
    Tensor p({n, c, h, w});
    for (int in = 0; in < n; ++in) {
      const std::size_t block = static_cast<std::size_t>(c) * h * w;
      const float* src = x.data() + x.offset4(in, g * c, 0, 0);
      float* dst = p.data() + p.offset4(in, 0, 0, 0);
      std::copy(src, src + block, dst);
    }
    parts.push_back(std::move(p));
  }
  return parts;
}

Tensor softmax(const Tensor& logits) {
  FMS_CHECK(logits.ndim() == 2);
  const int n = logits.dim(0), c = logits.dim(1);
  Tensor p({n, c});
  for (int i = 0; i < n; ++i) {
    float mx = -std::numeric_limits<float>::infinity();
    for (int j = 0; j < c; ++j) mx = std::max(mx, logits.at2(i, j));
    float z = 0.0F;
    for (int j = 0; j < c; ++j) {
      const float e = std::exp(logits.at2(i, j) - mx);
      p.at2(i, j) = e;
      z += e;
    }
    for (int j = 0; j < c; ++j) p.at2(i, j) /= z;
  }
  return p;
}

CrossEntropyResult cross_entropy(const Tensor& logits,
                                 const std::vector<int>& labels) {
  FMS_CHECK(logits.ndim() == 2);
  const int n = logits.dim(0), c = logits.dim(1);
  FMS_CHECK(static_cast<int>(labels.size()) == n);
  CrossEntropyResult res;
  res.probs = softmax(logits);
  res.grad_logits = Tensor({n, c});
  double loss = 0.0;
  int correct = 0;
  const float inv_n = 1.0F / static_cast<float>(n);
  for (int i = 0; i < n; ++i) {
    const int y = labels[static_cast<std::size_t>(i)];
    FMS_CHECK(y >= 0 && y < c);
    const float py = std::max(res.probs.at2(i, y), 1e-12F);
    loss -= std::log(py);
    int argmax = 0;
    float best = res.probs.at2(i, 0);
    for (int j = 1; j < c; ++j) {
      if (res.probs.at2(i, j) > best) {
        best = res.probs.at2(i, j);
        argmax = j;
      }
    }
    if (argmax == y) ++correct;
    for (int j = 0; j < c; ++j) {
      res.grad_logits.at2(i, j) =
          (res.probs.at2(i, j) - (j == y ? 1.0F : 0.0F)) * inv_n;
    }
  }
  res.loss = static_cast<float>(loss / n);
  res.accuracy = static_cast<float>(correct) / static_cast<float>(n);
  return res;
}

}  // namespace fms
