// Randomized oracle tests of the pooling, global-average-pool, ReLU and
// BatchNorm kernels (src/tensor/ops.cpp, src/nn/layers.cpp) against the
// direct loops in tests/layer_reference.h. The kernels promise the
// oracle's float operations in the oracle's order, so every output is
// compared byte for byte (memcmp), not within a tolerance. Shapes are
// random: C in 1..33 (so channel blocks of 8 have ragged tails), H/W in
// 1..11, kernel 1..3, stride 1..2, padding 0..1. ReLU and MaxPool also
// see -0.0, NaN, +-inf and many ties.
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/nn/layers.h"
#include "src/tensor/ops.h"
#include "tests/layer_reference.h"

namespace fms {
namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

// "" if a and b have the same shape and bytes, else the first difference.
std::string byte_diff(const Tensor& a, const Tensor& b) {
  if (!a.same_shape(b)) return "shape " + a.shape_str() + " vs " + b.shape_str();
  for (std::size_t i = 0; i < a.numel(); ++i) {
    if (std::memcmp(&a.data()[i], &b.data()[i], sizeof(float)) != 0) {
      std::ostringstream os;
      os << "element " << i << ": " << a[i] << " vs " << b[i];
      return os.str();
    }
  }
  return "";
}

enum class Values { kGaussian, kTies, kSpecial };

// Gaussian values; kTies draws from {-2, ..., 2} so windows tie often;
// kSpecial replaces about one value in five with -0.0, NaN, +inf or -inf.
Tensor draw(std::vector<int> shape, Values kind, Rng& rng) {
  Tensor t = Tensor::randn(std::move(shape), rng);
  const float specials[] = {-0.0F, kNaN, kInf, -kInf};
  for (std::size_t i = 0; i < t.numel(); ++i) {
    if (kind == Values::kTies) {
      t[i] = static_cast<float>(rng.randint(-2, 2));
    } else if (kind == Values::kSpecial && rng.randint(0, 4) == 0) {
      t[i] = specials[rng.randint(0, 3)];
    }
  }
  return t;
}

struct PoolCase {
  int n, c, h, w, kernel, stride, padding;
  Values values;

  std::vector<int> shape() const { return {n, c, h, w}; }
  std::string str() const {
    std::ostringstream os;
    os << "x=[" << n << "," << c << "," << h << "," << w << "] k=" << kernel
       << " stride=" << stride << " pad=" << padding
       << " values=" << static_cast<int>(values);
    return os.str();
  }
};

PoolCase draw_pool_case(Rng& rng) {
  PoolCase p{};
  p.n = rng.randint(1, 3);
  p.c = rng.randint(1, 33);
  p.kernel = rng.randint(1, 3);
  p.stride = rng.randint(1, 2);
  p.padding = rng.randint(0, 1);
  const int min_hw = std::max(1, p.kernel - 2 * p.padding);
  p.h = rng.randint(min_hw, 11);
  p.w = rng.randint(min_hw, 11);
  p.values = static_cast<Values>(rng.randint(0, 2));
  return p;
}

TEST(LayerKernelOracle, MaxPoolMatchesReferenceBitForBit) {
  Rng rng(0x9001);
  for (int trial = 0; trial < 300; ++trial) {
    const PoolCase p = draw_pool_case(rng);
    SCOPED_TRACE(p.str());
    const Tensor x = draw(p.shape(), p.values, rng);
    const MaxPoolResult fast = maxpool2d_forward(x, p.kernel, p.stride, p.padding);
    const MaxPoolResult ref = testing_ref::maxpool2d_forward_reference(
        x, p.kernel, p.stride, p.padding);
    ASSERT_EQ(byte_diff(fast.y, ref.y), "") << "y";
    ASSERT_EQ(fast.argmax, ref.argmax);
    const Tensor gy = draw(ref.y.shape(), Values::kGaussian, rng);
    ASSERT_EQ(byte_diff(maxpool2d_backward(x.shape(), fast, gy),
                        testing_ref::maxpool2d_backward_reference(x, ref, gy)),
              "")
        << "grad_x";
  }
}

// Hand-placed windows: one tap inside the plane, NaN in the first and in
// a later tap, -inf everywhere, and exact ties.
TEST(LayerKernelOracle, MaxPoolSpecialWindows) {
  const auto check = [](const Tensor& x, int kernel, int stride, int padding) {
    const MaxPoolResult fast = maxpool2d_forward(x, kernel, stride, padding);
    const MaxPoolResult ref =
        testing_ref::maxpool2d_forward_reference(x, kernel, stride, padding);
    EXPECT_EQ(byte_diff(fast.y, ref.y), "");
    EXPECT_EQ(fast.argmax, ref.argmax);
    return fast;
  };
  // 1x1 plane, 3x3 window with padding 1: one valid tap per window.
  check(Tensor({1, 1, 1, 1}, std::vector<float>{-3.0F}), 3, 1, 1);
  // NaN as the first tap sticks; NaN as a later tap is passed over.
  const MaxPoolResult first_nan =
      check(Tensor({1, 1, 2, 2}, std::vector<float>{kNaN, 5.0F, 7.0F, 1.0F}), 2, 2, 0);
  EXPECT_TRUE(std::isnan(first_nan.y[0]));
  EXPECT_EQ(first_nan.argmax[0], 0U);
  const MaxPoolResult later_nan =
      check(Tensor({1, 1, 2, 2}, std::vector<float>{1.0F, kNaN, 7.0F, 3.0F}), 2, 2, 0);
  EXPECT_EQ(later_nan.y[0], 7.0F);
  EXPECT_EQ(later_nan.argmax[0], 2U);
  // All -inf: the first tap wins.
  const MaxPoolResult all_neg_inf =
      check(Tensor::full({1, 1, 2, 2}, -kInf), 2, 2, 0);
  EXPECT_EQ(all_neg_inf.argmax[0], 0U);
  // Ties keep the first index, across 9 planes (one block of 8 and a tail).
  const MaxPoolResult ties = check(Tensor::full({3, 3, 3, 3}, 2.0F), 3, 1, 1);
  EXPECT_EQ(ties.argmax[4], 0U);                   // plane 0, centre window
  EXPECT_EQ(ties.argmax[8 * 9 + 4], 8U * 9U);      // plane 8, centre window
  // kernel 1, padding 1: the border windows hold padding only (y 0, argmax 0).
  const MaxPoolResult padding_only = check(Tensor::full({1, 2, 2, 2}, 4.0F), 1, 1, 1);
  EXPECT_EQ(padding_only.y[0], 0.0F);
  EXPECT_EQ(padding_only.argmax[16 + 0], 0U);
}

TEST(LayerKernelOracle, AvgPoolMatchesReferenceBitForBit) {
  Rng rng(0x9002);
  for (int trial = 0; trial < 300; ++trial) {
    PoolCase p = draw_pool_case(rng);
    p.values = Values::kGaussian;
    SCOPED_TRACE(p.str());
    const Tensor x = draw(p.shape(), p.values, rng);
    const Tensor y = avgpool2d_forward(x, p.kernel, p.stride, p.padding);
    ASSERT_EQ(byte_diff(y, testing_ref::avgpool2d_forward_reference(
                               x, p.kernel, p.stride, p.padding)),
              "")
        << "y";
    const Tensor gy = draw(y.shape(), Values::kGaussian, rng);
    ASSERT_EQ(byte_diff(avgpool2d_backward(x.shape(), gy, p.kernel, p.stride,
                                           p.padding),
                        testing_ref::avgpool2d_backward_reference(
                            x, gy, p.kernel, p.stride, p.padding)),
              "")
        << "grad_x";
  }
}

TEST(LayerKernelOracle, GlobalAvgPoolMatchesReferenceBitForBit) {
  Rng rng(0x9003);
  for (int trial = 0; trial < 100; ++trial) {
    const std::vector<int> shape = {rng.randint(1, 3), rng.randint(1, 33),
                                    rng.randint(1, 11), rng.randint(1, 11)};
    const Tensor x = Tensor::randn(shape, rng);
    const Tensor y = global_avgpool_forward(x);
    ASSERT_EQ(byte_diff(y, testing_ref::global_avgpool_forward_reference(x)), "");
    const Tensor gy = Tensor::randn(y.shape(), rng);
    ASSERT_EQ(byte_diff(global_avgpool_backward(shape, gy),
                        testing_ref::global_avgpool_backward_reference(x, gy)),
              "");
  }
}

TEST(LayerKernelOracle, ReluMatchesReferenceBitForBit) {
  Rng rng(0x9004);
  for (int trial = 0; trial < 100; ++trial) {
    const std::vector<int> shape = {rng.randint(1, 3), rng.randint(1, 33),
                                    rng.randint(1, 11), rng.randint(1, 11)};
    const Tensor x = draw(shape, Values::kSpecial, rng);
    const Tensor gy = draw(shape, Values::kSpecial, rng);
    ASSERT_EQ(byte_diff(relu_forward(x), testing_ref::relu_forward_reference(x)), "");
    ASSERT_EQ(byte_diff(relu_backward(x, gy),
                        testing_ref::relu_backward_reference(x, gy)),
              "");
  }
  const Tensor x({6}, std::vector<float>{-0.0F, 0.0F, kNaN, kInf, -kInf, 1.0F});
  const Tensor gy({6}, std::vector<float>{1.0F, 2.0F, 3.0F, 4.0F, 5.0F, kNaN});
  EXPECT_EQ(byte_diff(relu_forward(x), testing_ref::relu_forward_reference(x)), "");
  EXPECT_EQ(byte_diff(relu_backward(x, gy),
                      testing_ref::relu_backward_reference(x, gy)),
            "");
}

// BatchNorm2d is driven through the layer: train forward (twice, so the
// running statistics move), backward into zeroed gradients, then an
// eval forward that reads the running statistics.
TEST(LayerKernelOracle, BatchNormMatchesReferenceBitForBit) {
  Rng rng(0x9005);
  constexpr float kEps = 1e-5F, kMomentum = 0.1F;
  for (int trial = 0; trial < 100; ++trial) {
    const int c = rng.randint(1, 33);
    const std::vector<int> shape = {rng.randint(1, 3), c, rng.randint(1, 11),
                                    rng.randint(1, 11)};
    SCOPED_TRACE(Tensor(shape).shape_str());
    BatchNorm2d bn(c, kEps, kMomentum);
    const std::vector<Param*> params = bn.params();
    ASSERT_EQ(params.size(), 2U);
    params[0]->value = Tensor::randn({c}, rng);
    params[1]->value = Tensor::randn({c}, rng);
    const Tensor& gamma = params[0]->value;
    const Tensor& beta = params[1]->value;
    Tensor running_mean({c});
    Tensor running_var = Tensor::full({c}, 1.0F);

    testing_ref::BatchNormTrainReference ref;
    for (int step = 0; step < 2; ++step) {
      Tensor x = Tensor::randn(shape, rng, 3.0F);
      for (float& v : x.vec()) v += 1.5F;
      const Tensor y = bn.forward(x, /*train=*/true);
      ref = testing_ref::batchnorm2d_train_forward_reference(
          x, gamma, beta, running_mean, running_var, kEps, kMomentum);
      ASSERT_EQ(byte_diff(y, ref.y), "") << "train y, step " << step;
    }

    bn.zero_grad();
    const Tensor gy = Tensor::randn(shape, rng);
    const Tensor gx = bn.backward(gy);
    Tensor grad_gamma({c}), grad_beta({c});
    const Tensor gx_ref = testing_ref::batchnorm2d_backward_reference(
        ref.xhat, ref.inv_std, gamma, gy, grad_gamma, grad_beta);
    ASSERT_EQ(byte_diff(gx, gx_ref), "") << "grad_x";
    ASSERT_EQ(byte_diff(params[0]->grad, grad_gamma), "") << "grad_gamma";
    ASSERT_EQ(byte_diff(params[1]->grad, grad_beta), "") << "grad_beta";

    const Tensor xe = Tensor::randn(shape, rng, 2.0F);
    ASSERT_EQ(byte_diff(bn.forward(xe, /*train=*/false),
                        testing_ref::batchnorm2d_eval_forward_reference(
                            xe, gamma, beta, running_mean, running_var, kEps)),
              "")
        << "eval y";
  }
}

}  // namespace
}  // namespace fms
