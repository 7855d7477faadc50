// Randomized property tests of the conv engine and its GEMM
// (src/tensor/ops.cpp) against direct-loop oracles. For random N/C/H/W,
// kernel size, stride, padding, dilation and groups, every path's y,
// grad_x and grad_w must agree with tests/conv_reference.h element by
// element within 16 * FLT_EPSILON * sum|terms|, where sum|terms| is the
// oracle run on the absolute values of the same inputs.
#include <algorithm>
#include <cfloat>
#include <cmath>
#include <sstream>
#include <string>

#include "gtest/gtest.h"
#include "src/tensor/ops.h"
#include "tests/conv_reference.h"

namespace fms {
namespace {

constexpr float kUlpScale = 16.0F * FLT_EPSILON;

Tensor abs_of(const Tensor& t) {
  Tensor a = t;
  for (std::size_t i = 0; i < a.numel(); ++i) a[i] = std::fabs(a[i]);
  return a;
}

// First element where |fast - ref| > kUlpScale * abs_terms, or "" if none.
std::string first_violation(const Tensor& fast, const Tensor& ref,
                            const Tensor& abs_terms) {
  if (!fast.same_shape(ref)) {
    return "shape " + fast.shape_str() + " vs " + ref.shape_str();
  }
  for (std::size_t i = 0; i < ref.numel(); ++i) {
    const float bound = kUlpScale * abs_terms[i];
    if (!(std::fabs(fast[i] - ref[i]) <= bound)) {
      std::ostringstream os;
      os << "element " << i << ": fast " << fast[i] << " ref " << ref[i]
         << " bound " << bound;
      return os.str();
    }
  }
  return "";
}

struct ConvCase {
  int n = 1, cin = 1, cout = 1, h = 1, w = 1, k = 1;
  Conv2dSpec spec;

  std::string str() const {
    std::ostringstream os;
    os << "n=" << n << " cin=" << cin << " cout=" << cout << " h=" << h
       << " w=" << w << " k=" << k << " stride=" << spec.stride
       << " pad=" << spec.padding << " dil=" << spec.dilation
       << " groups=" << spec.groups;
    return os.str();
  }
};

// Draws a case that conv_path routes to `path`; groups come from
// {1, 2, C} as far as the path allows.
ConvCase draw_case(Rng& rng, ConvPath path) {
  ConvCase c;
  c.n = rng.randint(1, 3);
  const int kernels[] = {1, 3, 5};
  c.k = kernels[rng.randint(0, 2)];
  c.spec.stride = rng.randint(1, 3);
  c.spec.dilation = rng.randint(1, 2);
  c.spec.padding = rng.randint(0, c.spec.dilation * (c.k / 2) + 1);
  const int per_group = rng.randint(1, 4);
  switch (path) {
    case ConvPath::kDepthwise:
      c.cin = c.cout = c.spec.groups = rng.randint(1, 6);
      break;
    case ConvPath::kPointwise:
      c.k = 1;
      c.spec.stride = 1;
      c.spec.padding = 0;
      c.spec.groups = rng.randint(1, 2);
      c.cin = c.spec.groups * per_group;
      c.cout = c.spec.groups * rng.randint(1, 5);
      if (c.spec.groups == c.cin && c.cin == c.cout) c.cout *= 2;
      break;
    case ConvPath::kIm2col: {
      const int choice = rng.randint(0, 2);
      if (choice == 0) {
        c.spec.groups = 1;
      } else if (choice == 1) {
        c.spec.groups = 2;
      } else {
        c.spec.groups = per_group + 1;  // groups == C_in, C_out == 2 C_in
      }
      c.cin = choice == 2 ? c.spec.groups : c.spec.groups * per_group;
      c.cout = c.spec.groups * rng.randint(1, 3);
      if (choice == 2) c.cout = 2 * c.cin;
      if (c.spec.groups == c.cin && c.cin == c.cout) c.cout *= 2;
      if (c.k == 1 && c.spec.stride == 1 && c.spec.padding == 0) {
        c.spec.padding = 1;
      }
      break;
    }
  }
  const int eff = c.spec.dilation * (c.k - 1) + 1;
  const int min_hw = std::max(1, eff - 2 * c.spec.padding);
  c.h = rng.randint(min_hw, 11);
  c.w = rng.randint(min_hw, 11);
  return c;
}

class ConvEngineOracle : public ::testing::TestWithParam<ConvPath> {};

TEST_P(ConvEngineOracle, MatchesReferenceOnRandomShapes) {
  const ConvPath path = GetParam();
  Rng rng(0xC0DE + static_cast<int>(path));
  for (int trial = 0; trial < 150; ++trial) {
    const ConvCase c = draw_case(rng, path);
    SCOPED_TRACE(c.str());
    ASSERT_EQ(conv_path(c.cin, c.cout, c.k, c.k, c.spec), path);
    const Tensor x = Tensor::randn({c.n, c.cin, c.h, c.w}, rng);
    const Tensor w =
        Tensor::randn({c.cout, c.cin / c.spec.groups, c.k, c.k}, rng);

    const Tensor y = conv2d_forward(x, w, c.spec);
    const Tensor y_ref = testing_ref::conv2d_forward_reference(x, w, c.spec);
    const Tensor y_abs =
        testing_ref::conv2d_forward_reference(abs_of(x), abs_of(w), c.spec);
    ASSERT_EQ(first_violation(y, y_ref, y_abs), "") << "y";

    const Tensor gy = Tensor::randn(y_ref.shape(), rng);
    const Conv2dGrads g = conv2d_backward(x, w, gy, c.spec);
    const Conv2dGrads g_ref =
        testing_ref::conv2d_backward_reference(x, w, gy, c.spec);
    const Conv2dGrads g_abs = testing_ref::conv2d_backward_reference(
        abs_of(x), abs_of(w), abs_of(gy), c.spec);
    ASSERT_EQ(first_violation(g.grad_x, g_ref.grad_x, g_abs.grad_x), "")
        << "grad_x";
    ASSERT_EQ(first_violation(g.grad_w, g_ref.grad_w, g_abs.grad_w), "")
        << "grad_w";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPaths, ConvEngineOracle,
    ::testing::Values(ConvPath::kPointwise, ConvPath::kDepthwise,
                      ConvPath::kIm2col),
    [](const ::testing::TestParamInfo<ConvPath>& info) {
      switch (info.param) {
        case ConvPath::kPointwise:
          return std::string("Pointwise");
        case ConvPath::kDepthwise:
          return std::string("Depthwise");
        case ConvPath::kIm2col:
          return std::string("Im2col");
      }
      return std::string("Unknown");
    });

// The shapes the DARTS operation set actually builds, each on the path
// the engine documents for it.
TEST(ConvEngine, DartsOpsTakeTheirPaths) {
  EXPECT_EQ(conv_path(8, 8, 1, 1, Conv2dSpec{1, 0, 1, 1}), ConvPath::kPointwise);
  EXPECT_EQ(conv_path(8, 8, 3, 3, Conv2dSpec{1, 1, 1, 8}), ConvPath::kDepthwise);
  EXPECT_EQ(conv_path(8, 8, 5, 5, Conv2dSpec{2, 4, 2, 8}), ConvPath::kDepthwise);
  EXPECT_EQ(conv_path(3, 24, 3, 3, Conv2dSpec{1, 1, 1, 1}), ConvPath::kIm2col);
  EXPECT_EQ(conv_path(8, 8, 1, 1, Conv2dSpec{2, 0, 1, 1}), ConvPath::kIm2col);
}

// Naive C = op(A) * op(B) with one accumulator per element.
Tensor matmul_reference(const Tensor& a, bool ta, const Tensor& b, bool tb) {
  const int m = ta ? a.dim(1) : a.dim(0), k = ta ? a.dim(0) : a.dim(1);
  const int n = tb ? b.dim(0) : b.dim(1);
  Tensor c({m, n});
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float acc = 0.0F;
      for (int p = 0; p < k; ++p) {
        acc += (ta ? a.at2(p, i) : a.at2(i, p)) * (tb ? b.at2(j, p) : b.at2(p, j));
      }
      c.at2(i, j) = acc;
    }
  }
  return c;
}

TEST(ConvEngine, MatmulVariantsMatchReferenceOnRandomShapes) {
  Rng rng(0x6E33);
  for (int trial = 0; trial < 60; ++trial) {
    const int m = rng.randint(1, 37), k = rng.randint(1, 37),
              n = rng.randint(1, 37);
    SCOPED_TRACE(::testing::Message() << "m=" << m << " k=" << k << " n=" << n);
    const Tensor a = Tensor::randn({m, k}, rng);
    const Tensor b = Tensor::randn({k, n}, rng);
    const Tensor at = Tensor::randn({k, m}, rng);
    const Tensor bt = Tensor::randn({n, k}, rng);
    ASSERT_EQ(first_violation(matmul(a, b), matmul_reference(a, false, b, false),
                              matmul_reference(abs_of(a), false, abs_of(b), false)),
              "")
        << "matmul";
    ASSERT_EQ(first_violation(matmul_tn(at, b), matmul_reference(at, true, b, false),
                              matmul_reference(abs_of(at), true, abs_of(b), false)),
              "")
        << "matmul_tn";
    ASSERT_EQ(first_violation(matmul_nt(a, bt), matmul_reference(a, false, bt, true),
                              matmul_reference(abs_of(a), false, abs_of(bt), true)),
              "")
        << "matmul_nt";
  }
}

}  // namespace
}  // namespace fms
