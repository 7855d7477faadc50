// Unit tests for layers and the optimizer: finite-difference gradient
// checks through whole modules, BatchNorm statistics, SGD semantics.
#include <cmath>
#include <initializer_list>

#include "gtest/gtest.h"
#include "src/nn/layers.h"
#include "src/nn/optim.h"
#include "src/tensor/ops.h"

namespace fms {
namespace {

// Scalar objective <net(x), gy> used for module-level grad checks.
double module_objective(Module& m, const Tensor& x, const Tensor& gy) {
  Tensor y = m.forward(x, /*train=*/false);
  double s = 0.0;
  for (std::size_t i = 0; i < y.numel(); ++i) s += y[i] * gy[i];
  return s;
}

void check_module_input_grad(Module& m, const Tensor& x, double tol = 2e-2) {
  Tensor y = m.forward(x, /*train=*/true);
  Rng rng(99);
  Tensor gy = Tensor::randn(y.shape(), rng);
  Tensor gx = m.backward(gy);
  const float eps = 1e-2F;
  for (std::size_t i = 0; i < std::min<std::size_t>(x.numel(), 12); ++i) {
    Tensor xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    // Use train=false path for objective to keep BN running stats from
    // drifting? No: we need the same normalization. Re-run train mode.
    Tensor yp = m.forward(xp, true);
    Tensor ym = m.forward(xm, true);
    double sp = 0.0, sm = 0.0;
    for (std::size_t j = 0; j < yp.numel(); ++j) {
      sp += yp[j] * gy[j];
      sm += ym[j] * gy[j];
    }
    EXPECT_NEAR(gx[i], (sp - sm) / (2.0 * eps), tol) << "input grad " << i;
  }
}

TEST(Layers, Conv2dParamCount) {
  Rng rng(1);
  Conv2d conv(3, 8, 3, Conv2dSpec{1, 1, 1, 1}, rng);
  EXPECT_EQ(conv.param_count(), 8u * 3u * 3u * 3u);
}

TEST(Layers, LinearForwardShape) {
  Rng rng(1);
  Linear lin(6, 4, rng);
  Tensor x = Tensor::randn({2, 6}, rng);
  Tensor y = lin.forward(x, false);
  EXPECT_EQ(y.dim(0), 2);
  EXPECT_EQ(y.dim(1), 4);
  EXPECT_EQ(lin.param_count(), 6u * 4u + 4u);
}

TEST(Layers, LinearGradCheck) {
  Rng rng(2);
  Linear lin(5, 3, rng);
  Tensor x = Tensor::randn({4, 5}, rng);
  check_module_input_grad(lin, x, 1e-2);
}

TEST(Layers, LinearParamGradCheck) {
  Rng rng(3);
  Linear lin(4, 3, rng);
  Tensor x = Tensor::randn({2, 4}, rng);
  Tensor y = lin.forward(x, true);
  Tensor gy = Tensor::randn(y.shape(), rng);
  lin.zero_grad();
  lin.backward(gy);
  auto params = lin.params();
  const float eps = 1e-2F;
  for (Param* p : params) {
    for (std::size_t i = 0; i < std::min<std::size_t>(p->numel(), 6); ++i) {
      const float orig = p->value[i];
      p->value[i] = orig + eps;
      const double sp = module_objective(lin, x, gy);
      p->value[i] = orig - eps;
      const double sm = module_objective(lin, x, gy);
      p->value[i] = orig;
      EXPECT_NEAR(p->grad[i], (sp - sm) / (2.0 * eps), 1e-2);
    }
  }
}

TEST(Layers, BatchNormNormalizesTrainBatch) {
  Rng rng(4);
  BatchNorm2d bn(3);
  Tensor x = Tensor::randn({4, 3, 5, 5}, rng, 3.0F);
  Tensor y = bn.forward(x, true);
  // With gamma=1, beta=0 the per-channel output should be ~N(0,1).
  for (int c = 0; c < 3; ++c) {
    double mean = 0.0, var = 0.0;
    const int m = 4 * 5 * 5;
    for (int n = 0; n < 4; ++n)
      for (int h = 0; h < 5; ++h)
        for (int w = 0; w < 5; ++w) mean += y.at4(n, c, h, w);
    mean /= m;
    for (int n = 0; n < 4; ++n)
      for (int h = 0; h < 5; ++h)
        for (int w = 0; w < 5; ++w) {
          const double d = y.at4(n, c, h, w) - mean;
          var += d * d;
        }
    var /= m;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(Layers, BatchNormGradCheck) {
  Rng rng(5);
  BatchNorm2d bn(2);
  Tensor x = Tensor::randn({3, 2, 3, 3}, rng);
  Tensor y = bn.forward(x, true);
  Tensor gy = Tensor::randn(y.shape(), rng);
  bn.zero_grad();
  Tensor gx = bn.backward(gy);
  const float eps = 1e-2F;
  auto obj = [&](const Tensor& xx) {
    Tensor yy = bn.forward(xx, true);
    double s = 0.0;
    for (std::size_t j = 0; j < yy.numel(); ++j) s += yy[j] * gy[j];
    return s;
  };
  for (std::size_t i = 0; i < 10; ++i) {
    Tensor xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    EXPECT_NEAR(gx[i], (obj(xp) - obj(xm)) / (2.0 * eps), 5e-2);
  }
}

TEST(Layers, BatchNormEvalUsesRunningStats) {
  Rng rng(6);
  BatchNorm2d bn(1);
  // Train on many batches so running stats converge.
  for (int i = 0; i < 200; ++i) {
    Tensor x = Tensor::randn({8, 1, 2, 2}, rng, 2.0F);
    for (auto& v : x.vec()) v += 5.0F;  // mean 5, std 2
    bn.forward(x, true);
  }
  Tensor x = Tensor::full({1, 1, 1, 1}, 5.0F);
  Tensor y = bn.forward(x, false);
  EXPECT_NEAR(y[0], 0.0F, 0.2F);  // the mean maps near zero
}

TEST(Layers, SepConvPreservesShapeStride1) {
  Rng rng(7);
  auto op = make_sep_conv(4, 3, 1, rng);
  Tensor x = Tensor::randn({2, 4, 8, 8}, rng);
  Tensor y = op->forward(x, false);
  EXPECT_EQ(y.shape(), x.shape());
}

TEST(Layers, SepConvHalvesSpatialStride2) {
  Rng rng(8);
  auto op = make_sep_conv(4, 5, 2, rng);
  Tensor x = Tensor::randn({1, 4, 8, 8}, rng);
  Tensor y = op->forward(x, false);
  EXPECT_EQ(y.dim(2), 4);
  EXPECT_EQ(y.dim(3), 4);
  EXPECT_EQ(y.dim(1), 4);
}

TEST(Layers, DilConvPreservesShape) {
  Rng rng(9);
  auto op = make_dil_conv(4, 3, 1, rng);
  Tensor x = Tensor::randn({1, 4, 8, 8}, rng);
  Tensor y = op->forward(x, false);
  EXPECT_EQ(y.shape(), x.shape());
}

TEST(Layers, FactorizedReduceHalvesSpatial) {
  Rng rng(10);
  auto op = make_factorized_reduce(4, 8, rng);
  Tensor x = Tensor::randn({1, 4, 8, 8}, rng);
  Tensor y = op->forward(x, false);
  EXPECT_EQ(y.dim(1), 8);
  EXPECT_EQ(y.dim(2), 4);
}

TEST(Layers, SequentialCloneIsDeep) {
  Rng rng(11);
  auto op = make_sep_conv(2, 3, 1, rng);
  auto copy = op->clone();
  auto p1 = op->params();
  auto p2 = copy->params();
  ASSERT_EQ(p1.size(), p2.size());
  // Same values, different storage.
  EXPECT_EQ(p1[0]->value.vec(), p2[0]->value.vec());
  p2[0]->value[0] += 1.0F;
  EXPECT_NE(p1[0]->value[0], p2[0]->value[0]);
}

TEST(Layers, SepConvGradCheck) {
  Rng rng(12);
  auto op = make_sep_conv(2, 3, 1, rng);
  Tensor x = Tensor::randn({1, 2, 4, 4}, rng);
  check_module_input_grad(*op, x, 5e-2);
}

// backward() consumes the activations its forward(train=true) cached: the
// first call succeeds, a second one fails the has-cache check, and a new
// train forward re-arms it.
void expect_backward_consumes_cache(Module& m, const Tensor& x) {
  const Tensor y = m.forward(x, /*train=*/true);
  const Tensor gy = Tensor::full(y.shape(), 1.0F);
  EXPECT_NO_THROW(m.backward(gy));
  EXPECT_THROW(m.backward(gy), CheckError);
  m.forward(x, /*train=*/true);
  EXPECT_NO_THROW(m.backward(gy));
}

TEST(Layers, BackwardConsumesTheForwardCacheOfEveryLayer) {
  Rng rng(31);
  const Tensor x = Tensor::randn({2, 4, 6, 6}, rng);
  Conv2d conv(4, 4, 3, Conv2dSpec{1, 1, 1, 1}, rng);
  Conv2d depthwise(4, 4, 3, Conv2dSpec{1, 1, 1, 4}, rng);
  BatchNorm2d bn(4);
  ReLU relu;
  MaxPool2d max_pool(3, 1, 1);
  AvgPool2d avg_pool(3, 2, 1);
  GlobalAvgPool gap;
  Linear linear(4, 3, rng);
  for (Module* m : std::initializer_list<Module*>{
           &conv, &depthwise, &bn, &relu, &max_pool, &avg_pool, &gap}) {
    expect_backward_consumes_cache(*m, x);
  }
  expect_backward_consumes_cache(linear, Tensor::randn({5, 4}, rng));
}

TEST(Optim, SGDPlainStep) {
  Param p(Tensor::full({2}, 1.0F));
  p.grad.fill(0.5F);
  SGD opt(SGD::Options{0.1F, 0.0F, 0.0F, 0.0F});
  opt.step({&p});
  EXPECT_NEAR(p.value[0], 1.0F - 0.1F * 0.5F, 1e-6F);
}

TEST(Optim, SGDMomentumAccumulates) {
  Param p(Tensor::full({1}, 0.0F));
  SGD opt(SGD::Options{1.0F, 0.5F, 0.0F, 0.0F});
  p.grad.fill(1.0F);
  opt.step({&p});
  EXPECT_NEAR(p.value[0], -1.0F, 1e-6F);  // v = 1
  p.grad.fill(1.0F);
  opt.step({&p});
  EXPECT_NEAR(p.value[0], -2.5F, 1e-6F);  // v = 1.5
}

TEST(Optim, SGDWeightDecay) {
  Param p(Tensor::full({1}, 2.0F));
  p.grad.fill(0.0F);
  SGD opt(SGD::Options{0.1F, 0.0F, 0.1F, 0.0F});
  opt.step({&p});
  EXPECT_NEAR(p.value[0], 2.0F - 0.1F * (0.1F * 2.0F), 1e-6F);
}

TEST(Optim, GradClipScalesDown) {
  Param p(Tensor::full({4}, 0.0F));
  p.grad.fill(10.0F);  // norm = 20
  const float before = clip_global_norm({&p}, 5.0F);
  EXPECT_NEAR(before, 20.0F, 1e-4F);
  EXPECT_NEAR(p.grad.l2_norm(), 5.0F, 1e-3F);
}

TEST(Optim, GradClipNoopBelowThreshold) {
  Param p(Tensor::full({4}, 0.0F));
  p.grad.fill(1.0F);  // norm = 2
  clip_global_norm({&p}, 5.0F);
  EXPECT_NEAR(p.grad.l2_norm(), 2.0F, 1e-5F);
}

TEST(Optim, FlattenRoundTrip) {
  Rng rng(13);
  Linear lin(3, 2, rng);
  auto params = lin.params();
  std::vector<float> flat = flatten_values(params);
  EXPECT_EQ(flat.size(), lin.param_count());
  for (auto& v : flat) v += 1.0F;
  unflatten_values(flat, params);
  std::vector<float> flat2 = flatten_values(params);
  EXPECT_EQ(flat, flat2);
}

TEST(Optim, TrainingReducesLossOnToyProblem) {
  // Tiny 2-class linear problem: training must reduce the loss.
  Rng rng(14);
  Linear lin(4, 2, rng);
  SGD opt(SGD::Options{0.1F, 0.9F, 0.0F, 5.0F});
  Tensor x = Tensor::randn({16, 4}, rng);
  std::vector<int> y;
  for (int i = 0; i < 16; ++i) {
    y.push_back(x.at2(i, 0) > 0 ? 1 : 0);
  }
  float first_loss = 0.0F, last_loss = 0.0F;
  for (int step = 0; step < 50; ++step) {
    lin.zero_grad();
    Tensor logits = lin.forward(x, true);
    CrossEntropyResult ce = cross_entropy(logits, y);
    lin.backward(ce.grad_logits);
    opt.step(lin.params());
    if (step == 0) first_loss = ce.loss;
    last_loss = ce.loss;
  }
  EXPECT_LT(last_loss, first_loss * 0.5F);
}

}  // namespace
}  // namespace fms
