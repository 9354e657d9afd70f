// Unit tests for the NN substrate: gradients checked by finite differences.

#include <gtest/gtest.h>

#include <cmath>

#include "nn/loss.h"
#include "nn/mlp.h"
#include "nn/parameter.h"
#include "tensor/ops.h"

namespace sgnn::nn {
namespace {

/// Scalar loss L = 0.5 ||y||² and its gradient dL/dy = y.
double HalfSq(const Matrix& y) { return 0.5 * ops::Dot(y, y); }

TEST(Parameter, GlorotWithinBound) {
  Rng rng(1);
  Parameter p(10, 20, Device::kHost);
  p.InitGlorot(&rng);
  const double bound = std::sqrt(6.0 / 30.0);
  for (int64_t i = 0; i < p.value().size(); ++i) {
    EXPECT_LE(std::fabs(p.value().data()[i]), bound + 1e-6);
  }
}

TEST(Parameter, AdamDecreasesQuadratic) {
  // Minimize 0.5 (w - 3)^2 with Adam.
  Parameter p(1, 1, Device::kHost);
  p.InitConstant(0.0f);
  AdamConfig cfg{0.1, 0.9, 0.999, 1e-8, 0.0};
  for (int t = 1; t <= 300; ++t) {
    p.ZeroGrad();
    p.grad().at(0, 0) = p.value().at(0, 0) - 3.0f;
    p.AdamStep(cfg, t);
  }
  EXPECT_NEAR(p.value().at(0, 0), 3.0f, 0.05f);
}

TEST(Parameter, WeightDecayShrinks) {
  Parameter p(1, 1, Device::kHost);
  p.InitConstant(1.0f);
  AdamConfig cfg{0.01, 0.9, 0.999, 1e-8, 0.5};
  for (int t = 1; t <= 200; ++t) {
    p.ZeroGrad();
    p.AdamStep(cfg, t);  // zero gradient: only decay acts
  }
  EXPECT_LT(std::fabs(p.value().at(0, 0)), 0.5f);
}

TEST(ScalarParams, AdamConvergesToTarget) {
  ScalarParams sp({0.0, 0.0});
  AdamConfig cfg{0.1, 0.9, 0.999, 1e-8, 0.0};
  for (int t = 1; t <= 500; ++t) {
    sp.ZeroGrad();
    sp.grads()[0] = sp[0] - 1.0;
    sp.grads()[1] = sp[1] + 2.0;
    sp.AdamStep(cfg, t);
  }
  EXPECT_NEAR(sp[0], 1.0, 0.05);
  EXPECT_NEAR(sp[1], -2.0, 0.05);
}

TEST(ScalarParams, ResetClearsState) {
  ScalarParams sp({1.0});
  sp.grads()[0] = 5.0;
  sp.AdamStep({0.1, 0.9, 0.999, 1e-8, 0.0}, 1);
  sp.Reset({7.0});
  EXPECT_DOUBLE_EQ(sp[0], 7.0);
  EXPECT_DOUBLE_EQ(sp.grads()[0], 0.0);
}

TEST(Linear, ForwardAppliesWeightAndBias) {
  Linear lin(2, 1, Device::kHost);
  lin.weight().value().at(0, 0) = 2.0f;
  lin.weight().value().at(1, 0) = 3.0f;
  lin.bias().value().at(0, 0) = 0.5f;
  Matrix x(1, 2);
  x.at(0, 0) = 1.0f;
  x.at(0, 1) = 1.0f;
  Matrix y(1, 1);
  lin.Forward(x, &y);
  EXPECT_FLOAT_EQ(y.at(0, 0), 5.5f);
}

TEST(Linear, GradientsMatchFiniteDifference) {
  Rng rng(3);
  Linear lin(3, 2, Device::kHost);
  lin.Init(&rng);
  Matrix x(4, 3);
  x.FillNormal(&rng);
  Matrix y(4, 2);
  lin.Forward(x, &y);
  Matrix grad_in(4, 3);
  lin.ZeroGrad();
  lin.Backward(x, y, &grad_in);  // dL/dy = y for L = 0.5||y||²

  const double eps = 1e-3;
  // Weight gradient check (entry 1,0).
  {
    const float orig = lin.weight().value().at(1, 0);
    lin.weight().value().at(1, 0) = orig + static_cast<float>(eps);
    Matrix yp(4, 2);
    lin.Forward(x, &yp);
    lin.weight().value().at(1, 0) = orig - static_cast<float>(eps);
    Matrix ym(4, 2);
    lin.Forward(x, &ym);
    lin.weight().value().at(1, 0) = orig;
    const double fd = (HalfSq(yp) - HalfSq(ym)) / (2 * eps);
    EXPECT_NEAR(lin.weight().grad().at(1, 0), fd, 5e-2);
  }
  // Input gradient check (entry 2,1).
  {
    const float orig = x.at(2, 1);
    x.at(2, 1) = orig + static_cast<float>(eps);
    Matrix yp(4, 2);
    lin.Forward(x, &yp);
    x.at(2, 1) = orig - static_cast<float>(eps);
    Matrix ym(4, 2);
    lin.Forward(x, &ym);
    x.at(2, 1) = orig;
    const double fd = (HalfSq(yp) - HalfSq(ym)) / (2 * eps);
    EXPECT_NEAR(grad_in.at(2, 1), fd, 5e-2);
  }
}

TEST(Mlp, EmptyIsIdentity) {
  Mlp mlp(0, 5, 8, 3, 0.0, Device::kHost);
  Rng rng(1);
  Matrix x(2, 5);
  x.FillNormal(&rng);
  Matrix y;
  mlp.Forward(x, &y, /*train=*/false, nullptr);
  EXPECT_TRUE(y.AllClose(x));
}

TEST(Mlp, OutputShape) {
  Mlp mlp(3, 5, 8, 3, 0.0, Device::kHost);
  Rng rng(2);
  mlp.Init(&rng);
  Matrix x(7, 5);
  x.FillNormal(&rng);
  Matrix y;
  mlp.Forward(x, &y, /*train=*/false, nullptr);
  EXPECT_EQ(y.rows(), 7);
  EXPECT_EQ(y.cols(), 3);
}

TEST(Mlp, TrainingReducesLoss) {
  // Fit y = 2x on scalar data.
  Rng rng(5);
  Mlp mlp(2, 1, 8, 1, 0.0, Device::kHost);
  mlp.Init(&rng);
  Matrix x(16, 1), target(16, 1);
  x.FillNormal(&rng);
  for (int64_t i = 0; i < 16; ++i) target.at(i, 0) = 2.0f * x.at(i, 0);
  AdamConfig cfg{0.01, 0.9, 0.999, 1e-8, 0.0};
  double first = -1, last = -1;
  for (int step = 1; step <= 400; ++step) {
    Matrix y;
    mlp.Forward(x, &y, /*train=*/true, &rng);
    Matrix grad(16, 1);
    const double loss = nn::MseLoss(y, target, &grad);
    if (first < 0) first = loss;
    last = loss;
    mlp.ZeroGrad();
    mlp.Backward(grad, nullptr);
    mlp.AdamStep(cfg, step);
  }
  EXPECT_LT(last, first * 0.05);
}

TEST(Mlp, DropoutZeroesInTrainOnly) {
  Rng rng(7);
  Mlp mlp(2, 4, 64, 4, 0.9, Device::kHost);
  mlp.Init(&rng);
  Matrix x(8, 4);
  x.Fill(1.0f);
  Matrix y1, y2;
  mlp.Forward(x, &y1, /*train=*/false, nullptr);
  mlp.Forward(x, &y2, /*train=*/false, nullptr);
  EXPECT_TRUE(y1.AllClose(y2));  // eval mode is deterministic
  Matrix t1, t2;
  mlp.Forward(x, &t1, /*train=*/true, &rng);
  mlp.Forward(x, &t2, /*train=*/true, &rng);
  EXPECT_FALSE(t1.AllClose(t2));  // dropout masks differ
}

TEST(Mlp, BackwardGradientFiniteDifference) {
  Rng rng(9);
  Mlp mlp(2, 3, 5, 2, 0.0, Device::kHost);
  mlp.Init(&rng);
  Matrix x(4, 3);
  x.FillNormal(&rng);
  Matrix y;
  mlp.Forward(x, &y, /*train=*/true, &rng);
  mlp.ZeroGrad();
  Matrix grad_in(4, 3);
  mlp.Backward(y, &grad_in);
  const double eps = 1e-3;
  const float orig = x.at(1, 2);
  x.at(1, 2) = orig + static_cast<float>(eps);
  Matrix yp;
  mlp.Forward(x, &yp, /*train=*/false, nullptr);
  x.at(1, 2) = orig - static_cast<float>(eps);
  Matrix ym;
  mlp.Forward(x, &ym, /*train=*/false, nullptr);
  x.at(1, 2) = orig;
  const double fd = (HalfSq(yp) - HalfSq(ym)) / (2 * eps);
  EXPECT_NEAR(grad_in.at(1, 2), fd, 5e-2);
}

TEST(SoftmaxCrossEntropy, UniformLogitsGiveLogC) {
  Matrix logits(2, 4);
  std::vector<int32_t> labels = {0, 3};
  Matrix grad(2, 4);
  const double loss = SoftmaxCrossEntropy(logits, labels, {}, &grad);
  EXPECT_NEAR(loss, std::log(4.0), 1e-5);
}

TEST(SoftmaxCrossEntropy, GradientSumsToZeroPerRow) {
  Rng rng(11);
  Matrix logits(3, 5);
  logits.FillNormal(&rng);
  std::vector<int32_t> labels = {1, 4, 2};
  Matrix grad(3, 5);
  SoftmaxCrossEntropy(logits, labels, {}, &grad);
  for (int64_t i = 0; i < 3; ++i) {
    double s = 0.0;
    for (int64_t j = 0; j < 5; ++j) s += grad.at(i, j);
    EXPECT_NEAR(s, 0.0, 1e-5);
  }
}

TEST(SoftmaxCrossEntropy, MaskedRowsGetZeroGradient) {
  Matrix logits(3, 2);
  std::vector<int32_t> labels = {0, 1, 0};
  Matrix grad(3, 2);
  SoftmaxCrossEntropy(logits, labels, {1}, &grad);
  EXPECT_FLOAT_EQ(grad.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(grad.at(2, 1), 0.0f);
  EXPECT_NE(grad.at(1, 0), 0.0f);
}

TEST(SoftmaxCrossEntropy, FiniteDifferenceGradient) {
  Rng rng(13);
  Matrix logits(2, 3);
  logits.FillNormal(&rng);
  std::vector<int32_t> labels = {2, 0};
  Matrix grad(2, 3);
  SoftmaxCrossEntropy(logits, labels, {}, &grad);
  const double eps = 1e-3;
  const float orig = logits.at(0, 1);
  Matrix g2(2, 3);
  logits.at(0, 1) = orig + static_cast<float>(eps);
  const double lp = SoftmaxCrossEntropy(logits, labels, {}, &g2);
  logits.at(0, 1) = orig - static_cast<float>(eps);
  const double lm = SoftmaxCrossEntropy(logits, labels, {}, &g2);
  logits.at(0, 1) = orig;
  EXPECT_NEAR(grad.at(0, 1), (lp - lm) / (2 * eps), 1e-3);
}

TEST(Softmax, RowsSumToOne) {
  Rng rng(15);
  Matrix logits(4, 6);
  logits.FillNormal(&rng);
  Matrix probs(4, 6);
  Softmax(logits, &probs);
  for (int64_t i = 0; i < 4; ++i) {
    double s = 0.0;
    for (int64_t j = 0; j < 6; ++j) {
      EXPECT_GE(probs.at(i, j), 0.0f);
      s += probs.at(i, j);
    }
    EXPECT_NEAR(s, 1.0, 1e-5);
  }
}

TEST(BceWithLogits, KnownValues) {
  Matrix logits(2, 1);
  logits.at(0, 0) = 0.0f;
  logits.at(1, 0) = 100.0f;  // numerically stable at extremes
  Matrix grad(2, 1);
  const double loss = BceWithLogits(logits, {1.0f, 1.0f}, &grad);
  EXPECT_NEAR(loss, 0.5 * std::log(2.0), 1e-4);
  EXPECT_NEAR(grad.at(0, 0), 0.5 * (0.5 - 1.0), 1e-5);
}

TEST(BceWithLogits, FiniteDifferenceGradient) {
  Matrix logits(1, 1);
  logits.at(0, 0) = 0.3f;
  Matrix grad(1, 1);
  BceWithLogits(logits, {0.0f}, &grad);
  const double eps = 1e-4;
  Matrix g2(1, 1);
  logits.at(0, 0) = 0.3f + static_cast<float>(eps);
  const double lp = BceWithLogits(logits, {0.0f}, &g2);
  logits.at(0, 0) = 0.3f - static_cast<float>(eps);
  const double lm = BceWithLogits(logits, {0.0f}, &g2);
  EXPECT_NEAR(grad.at(0, 0), (lp - lm) / (2 * eps), 1e-3);
}

TEST(MseLoss, ZeroForEqualInputs) {
  Matrix a(2, 2), b(2, 2);
  a.Fill(1.5f);
  b.Fill(1.5f);
  EXPECT_DOUBLE_EQ(MseLoss(a, b, nullptr), 0.0);
}

TEST(MseLoss, GradientDirection) {
  Matrix pred(1, 2), target(1, 2), grad(1, 2);
  pred.at(0, 0) = 2.0f;
  target.at(0, 0) = 1.0f;
  MseLoss(pred, target, &grad);
  EXPECT_GT(grad.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(grad.at(0, 1), 0.0f);
}

}  // namespace
}  // namespace sgnn::nn
