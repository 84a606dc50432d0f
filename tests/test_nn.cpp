#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>

#include "batchnorm_reference.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/pooling.hpp"
#include "nn/sequential.hpp"
#include "nn/sgd.hpp"

namespace remapd {
namespace {

/// Scalar probe loss L = sum(seed .* layer(x)); returns dL/dx from the
/// layer's backward and checks it against central finite differences.
void check_input_gradient(Layer& layer, const Tensor& x, double tol = 2e-2) {
  Rng rng(99);
  Tensor y = layer.forward(x, /*train=*/true);
  Tensor seed = Tensor::randn(y.shape(), rng);
  Tensor dx = layer.backward(seed);
  ASSERT_EQ(dx.shape(), x.shape());

  auto loss_at = [&](const Tensor& probe) {
    Tensor out = layer.forward(probe, /*train=*/true);
    double s = 0.0;
    for (std::size_t i = 0; i < out.numel(); ++i)
      s += static_cast<double>(seed[i]) * out[i];
    return s;
  };

  const float eps = 1e-2f;
  // Probe a deterministic subset of positions (finite differences on every
  // element would dominate test time without adding signal).
  for (std::size_t i = 0; i < x.numel(); i += std::max<std::size_t>(1, x.numel() / 17)) {
    Tensor xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const double num = (loss_at(xp) - loss_at(xm)) / (2.0 * eps);
    EXPECT_NEAR(dx[i], num, tol * (std::abs(num) + 1.0)) << "input idx " << i;
  }
  // Restore the saved-activation state for the caller.
  layer.forward(x, /*train=*/true);
}

/// Same probe loss, checking every parameter gradient (sampled).
void check_param_gradients(Layer& layer, const Tensor& x, double tol = 2e-2) {
  Rng rng(98);
  Tensor y = layer.forward(x, /*train=*/true);
  Tensor seed = Tensor::randn(y.shape(), rng);
  for (Param* p : layer.params()) p->zero_grad();
  layer.backward(seed);

  auto loss_now = [&]() {
    Tensor out = layer.forward(x, /*train=*/true);
    double s = 0.0;
    for (std::size_t i = 0; i < out.numel(); ++i)
      s += static_cast<double>(seed[i]) * out[i];
    return s;
  };

  const float eps = 1e-2f;
  for (Param* p : layer.params()) {
    for (std::size_t i = 0; i < p->value.numel();
         i += std::max<std::size_t>(1, p->value.numel() / 11)) {
      const float keep = p->value[i];
      p->value[i] = keep + eps;
      const double lp = loss_now();
      p->value[i] = keep - eps;
      const double lm = loss_now();
      p->value[i] = keep;
      const double num = (lp - lm) / (2.0 * eps);
      EXPECT_NEAR(p->grad[i], num, tol * (std::abs(num) + 1.0))
          << p->tag << " idx " << i;
    }
  }
}

// ------------------------------------------------------------------ Conv2d

TEST(Conv2d, OutputShape) {
  Rng rng(1);
  Conv2d conv(3, 8, 3, 1, 1, rng);
  Tensor x = Tensor::randn(Shape{2, 3, 8, 8}, rng);
  Tensor y = conv.forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{2, 8, 8, 8}));
  EXPECT_EQ(conv.weight_rows(), 8u);
  EXPECT_EQ(conv.weight_cols(), 27u);
}

TEST(Conv2d, StrideShrinksOutput) {
  Rng rng(2);
  Conv2d conv(2, 4, 3, 2, 1, rng);
  Tensor x = Tensor::randn(Shape{1, 2, 8, 8}, rng);
  EXPECT_EQ(conv.forward(x, false).shape(), (Shape{1, 4, 4, 4}));
}

TEST(Conv2d, KnownValue1x1) {
  Rng rng(3);
  Conv2d conv(1, 1, 1, 1, 0, rng);
  conv.weight_param().value[0] = 2.0f;
  conv.params()[1]->value[0] = 0.5f;  // bias
  Tensor x = Tensor::ones(Shape{1, 1, 2, 2});
  Tensor y = conv.forward(x, false);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(y[i], 2.5f);
}

TEST(Conv2d, InputGradientMatchesFiniteDifference) {
  Rng rng(4);
  Conv2d conv(2, 3, 3, 1, 1, rng);
  Tensor x = Tensor::randn(Shape{2, 2, 5, 5}, rng);
  check_input_gradient(conv, x);
}

TEST(Conv2d, ParamGradientsMatchFiniteDifference) {
  Rng rng(5);
  Conv2d conv(2, 3, 3, 1, 1, rng);
  Tensor x = Tensor::randn(Shape{2, 2, 5, 5}, rng);
  check_param_gradients(conv, x);
}

TEST(Conv2d, BadInputThrows) {
  Rng rng(6);
  Conv2d conv(3, 4, 3, 1, 1, rng);
  Tensor x = Tensor::randn(Shape{1, 2, 4, 4}, rng);
  EXPECT_THROW(conv.forward(x, false), std::invalid_argument);
  Conv2d fresh(3, 4, 3, 1, 1, rng);
  EXPECT_THROW(fresh.backward(Tensor::zeros(Shape{1, 4, 4, 4})),
               std::logic_error);
}

TEST(Conv2d, ForwardFaultViewClampsWeights) {
  Rng rng(7);
  Conv2d conv(1, 2, 1, 1, 0, rng);
  conv.weight_param().value[0] = 0.3f;
  conv.weight_param().value[1] = -0.2f;
  FaultView fwd;
  fwd.w_max = 1.0f;
  fwd.mode = MappingMode::kSingleArrayBias;
  fwd.clamps.push_back(WeightClamp{0, WeightClampKind::kPosStuck1});  // +1
  conv.set_fault_views(fwd, FaultView{});
  Tensor x = Tensor::ones(Shape{1, 1, 1, 1});
  Tensor y = conv.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 1.0f);   // stuck at +w_max
  EXPECT_FLOAT_EQ(y[1], -0.2f);  // untouched
  conv.clear_fault_views();
  EXPECT_FLOAT_EQ(conv.forward(x, false)[0], 0.3f);
}

// ------------------------------------------------------------------ Linear

TEST(Linear, OutputShapeAndValue) {
  Rng rng(8);
  Linear fc(3, 2, rng);
  fc.weight_param().value.fill(1.0f);
  fc.params()[1]->value[0] = 1.0f;
  Tensor x = Tensor::from_vector(Shape{1, 3}, {1, 2, 3});
  Tensor y = fc.forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{1, 2}));
  EXPECT_FLOAT_EQ(y[0], 7.0f);
  EXPECT_FLOAT_EQ(y[1], 6.0f);
}

TEST(Linear, FlattensHigherRankInput) {
  Rng rng(9);
  Linear fc(12, 4, rng);
  Tensor x = Tensor::randn(Shape{2, 3, 2, 2}, rng);
  EXPECT_EQ(fc.forward(x, false).shape(), (Shape{2, 4}));
}

TEST(Linear, GradientsMatchFiniteDifference) {
  Rng rng(10);
  Linear fc(5, 4, rng);
  Tensor x = Tensor::randn(Shape{3, 5}, rng);
  check_input_gradient(fc, x);
  check_param_gradients(fc, x);
}

TEST(Linear, BackwardRestoresInputShape) {
  Rng rng(11);
  Linear fc(8, 2, rng);
  Tensor x = Tensor::randn(Shape{2, 2, 2, 2}, rng);
  fc.forward(x, true);
  Tensor dx = fc.backward(Tensor::ones(Shape{2, 2}));
  EXPECT_EQ(dx.shape(), x.shape());
}

TEST(Linear, BackwardFaultViewAffectsDx) {
  Rng rng(12);
  Linear fc(2, 1, rng);
  fc.weight_param().value[0] = 0.5f;
  fc.weight_param().value[1] = 0.5f;
  FaultView bwd;
  bwd.w_max = 1.0f;
  bwd.clamps.push_back(WeightClamp{0, WeightClampKind::kPosStuck0});  // -1
  fc.set_fault_views(FaultView{}, bwd);

  Tensor x = Tensor::ones(Shape{1, 2});
  fc.forward(x, true);
  Tensor dx = fc.backward(Tensor::ones(Shape{1, 1}));
  // dx[0] uses the clamped backward weight (-w_max), dx[1] the true 0.5.
  EXPECT_FLOAT_EQ(dx[0], -1.0f);
  EXPECT_FLOAT_EQ(dx[1], 0.5f);
}

// ----------------------------------------------------------------- ReLU etc

TEST(ReLU, ForwardAndMaskedBackward) {
  ReLU relu;
  Tensor x = Tensor::from_vector(Shape{4}, {-1, 2, -3, 4});
  Tensor y = relu.forward(x, true);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[1], 2.0f);
  Tensor dx = relu.backward(Tensor::ones(Shape{4}));
  EXPECT_FLOAT_EQ(dx[0], 0.0f);
  EXPECT_FLOAT_EQ(dx[1], 1.0f);
  EXPECT_FLOAT_EQ(dx[2], 0.0f);
  EXPECT_FLOAT_EQ(dx[3], 1.0f);
}

TEST(ReLU, InPlaceHelperZeroesNonPositiveAndKeepsNaN) {
  // v > 0 and NaN keep v with mask 1; 0, -0 and negatives all become +0
  // with mask 0. A stale mask of the right shape is fully overwritten.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float tiny = std::numeric_limits<float>::denorm_min();
  Tensor x = Tensor::from_vector(Shape{8},
                                 {1.5f, -2.0f, 0.0f, -0.0f, nan, inf, -inf,
                                  tiny});
  Tensor mask(Shape{8}, 7.0f);
  relu_inplace(x, &mask);
  const float want_y[8] = {1.5f, 0.0f, 0.0f, 0.0f, nan, inf, 0.0f, tiny};
  const float want_m[8] = {1, 0, 0, 0, 1, 1, 0, 1};
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(std::memcmp(&x[i], &want_y[i], sizeof(float)), 0) << i;
    EXPECT_EQ(mask[i], want_m[i]) << i;
  }

  // Without a mask only the values change; backward multiplies, so a NaN
  // gradient under a zero mask stays NaN.
  Tensor y = Tensor::from_vector(Shape{2}, {-1.0f, 3.0f});
  relu_inplace(y, nullptr);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[1], 3.0f);
  Tensor dy = Tensor::from_vector(Shape{8},
                                  {2, 2, -2, 2, 2, nan, nan, 2});
  relu_backward_inplace(dy, mask);
  EXPECT_EQ(dy[0], 2.0f);
  EXPECT_TRUE(std::signbit(dy[2]));  // -2 * 0 = -0
  EXPECT_TRUE(std::isnan(dy[5]));
  EXPECT_TRUE(std::isnan(dy[6]));
  EXPECT_EQ(dy[7], 2.0f);
}

TEST(Flatten, RoundTrip) {
  Flatten fl;
  Rng rng(14);
  Tensor x = Tensor::randn(Shape{2, 3, 4, 4}, rng);
  Tensor y = fl.forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{2, 48}));
  Tensor dx = fl.backward(y);
  EXPECT_EQ(dx.shape(), x.shape());
}

// ----------------------------------------------------------------- Pooling

TEST(MaxPool2d, SelectsMaximaAndRoutesGradient) {
  MaxPool2d pool(2);
  Tensor x = Tensor::from_vector(Shape{1, 1, 2, 2}, {1, 5, 3, 2});
  Tensor y = pool.forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(y[0], 5.0f);
  Tensor dx = pool.backward(Tensor::ones(Shape{1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(dx[1], 1.0f);
  EXPECT_FLOAT_EQ(dx[0], 0.0f);
}

TEST(MaxPool2d, RejectsNonDivisibleInput) {
  MaxPool2d pool(2);
  Tensor x = Tensor::zeros(Shape{1, 1, 3, 3});
  EXPECT_THROW(pool.forward(x, false), std::invalid_argument);
}

TEST(GlobalAvgPool, AveragesAndBackpropagates) {
  GlobalAvgPool gap;
  Tensor x = Tensor::from_vector(Shape{1, 2, 1, 2}, {2, 4, 10, 20});
  Tensor y = gap.forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{1, 2}));
  EXPECT_FLOAT_EQ(y[0], 3.0f);
  EXPECT_FLOAT_EQ(y[1], 15.0f);
  Tensor dx = gap.backward(Tensor::ones(Shape{1, 2}));
  EXPECT_FLOAT_EQ(dx[0], 0.5f);
  EXPECT_FLOAT_EQ(dx[3], 0.5f);
}

// --------------------------------------------------------------- BatchNorm

TEST(BatchNorm, NormalizesTrainingBatch) {
  BatchNorm bn(2);
  Rng rng(15);
  Tensor x = Tensor::randn(Shape{8, 2, 4, 4}, rng, 3.0f);
  Tensor y = bn.forward(x, true);
  // Per-channel mean ~0, var ~1 after normalization with unit gamma.
  for (std::size_t c = 0; c < 2; ++c) {
    double mean = 0.0, var = 0.0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < 8; ++i)
      for (std::size_t p = 0; p < 16; ++p, ++n)
        mean += y[(i * 2 + c) * 16 + p];
    mean /= static_cast<double>(n);
    for (std::size_t i = 0; i < 8; ++i)
      for (std::size_t p = 0; p < 16; ++p)
        var += std::pow(y[(i * 2 + c) * 16 + p] - mean, 2);
    var /= static_cast<double>(n);
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNorm, GradientsMatchFiniteDifference) {
  BatchNorm bn(3);
  Rng rng(16);
  Tensor x = Tensor::randn(Shape{4, 3, 2, 2}, rng);
  check_input_gradient(bn, x, 5e-2);
  check_param_gradients(bn, x, 5e-2);
}

TEST(BatchNorm, WindowStatsDriveEval) {
  BatchNorm bn(1);
  bn.begin_stats_window();
  Tensor x = Tensor::from_vector(Shape{2, 1}, {4, 6});  // mean 5, var 1
  bn.forward(x, true);
  Tensor probe = Tensor::from_vector(Shape{1, 1}, {5});
  Tensor y = bn.forward(probe, false);
  EXPECT_NEAR(y[0], 0.0f, 1e-3);
}

TEST(BatchNorm, Rank2AndRank4Supported) {
  BatchNorm bn(4);
  Rng rng(17);
  EXPECT_NO_THROW(bn.forward(Tensor::randn(Shape{3, 4}, rng), true));
  BatchNorm bn4(4);
  EXPECT_NO_THROW(bn4.forward(Tensor::randn(Shape{3, 4, 2, 2}, rng), true));
  BatchNorm wrong(5);
  EXPECT_THROW(wrong.forward(Tensor::randn(Shape{3, 4}, rng), true),
               std::invalid_argument);
}

/// Same shape and the same bytes, NaN payloads and signed zeros included.
bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

template <class T>
std::string state_bytes(const T& s) {
  ckpt::ByteWriter w;
  s.save_state(w);
  return w.bytes();
}

TEST(BatchNorm, BitwiseTheScalarReference) {
  // Training (two batches, so the window merges), eval on the open window
  // and eval on the EMA fallback, against the one-channel-at-a-time
  // scalar loops. Channel counts cover full 8- and 4-wide groups and every
  // leftover width; one channel holds NaN and +-inf, which must stay in
  // that channel.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  for (const std::size_t c : {1, 3, 6, 8, 12, 20, 64}) {
    for (const std::size_t rank : {2, 4}) {
      SCOPED_TRACE("channels " + std::to_string(c) + ", rank " +
                   std::to_string(rank));
      const Shape shape = rank == 2 ? Shape{9, c} : Shape{3, c, 5, 7};
      const std::size_t sp = rank == 2 ? 1 : 35;
      Rng rng(40 + c + rank);
      BatchNorm bn(c);
      BatchNormReference ref(c);
      std::vector<Param*> p = bn.params();
      p[0]->value = ref.gamma = Tensor::randn(Shape{c}, rng);
      p[1]->value = ref.beta = Tensor::randn(Shape{c}, rng);

      Tensor x1 = Tensor::randn(shape, rng, 3.0f);
      const std::size_t bad = c / 2;
      x1[(0 * c + bad) * sp] = nan;
      x1[(1 * c + bad) * sp] = inf;
      x1[(2 * c + bad) * sp] = -inf;
      const Tensor x2 = Tensor::randn(shape, rng, 0.5f);
      for (const Tensor* x : {&std::as_const(x1), &x2}) {
        EXPECT_TRUE(same_bits(bn.forward(*x, true), ref.forward(*x, true)));
        const Tensor dy = Tensor::randn(shape, rng);
        EXPECT_TRUE(same_bits(bn.backward(dy), ref.backward(dy)));
        EXPECT_TRUE(same_bits(p[0]->grad, ref.gamma_grad));
        EXPECT_TRUE(same_bits(p[1]->grad, ref.beta_grad));
        EXPECT_EQ(state_bytes(bn), state_bytes(ref));
      }

      const Tensor probe = Tensor::randn(shape, rng, 2.0f);
      EXPECT_TRUE(same_bits(bn.forward(probe, false),
                            ref.forward(probe, false)));
      bn.begin_stats_window();
      ref.begin_stats_window();
      EXPECT_TRUE(same_bits(bn.forward(probe, false),
                            ref.forward(probe, false)));
      EXPECT_EQ(state_bytes(bn), state_bytes(ref));
    }
  }
}

// -------------------------------------------------------------------- Loss

TEST(SoftmaxCrossEntropy, UniformLogitsGiveLogC) {
  Tensor logits = Tensor::zeros(Shape{2, 4});
  LossResult r = softmax_cross_entropy(logits, {0, 3});
  EXPECT_NEAR(r.loss, std::log(4.0), 1e-5);
}

TEST(SoftmaxCrossEntropy, GradientSumsToZeroPerRow) {
  Rng rng(18);
  Tensor logits = Tensor::randn(Shape{3, 5}, rng);
  LossResult r = softmax_cross_entropy(logits, {1, 4, 0});
  for (std::size_t i = 0; i < 3; ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < 5; ++j) s += r.dlogits.at(i, j);
    EXPECT_NEAR(s, 0.0, 1e-6);
  }
}

TEST(SoftmaxCrossEntropy, GradientMatchesFiniteDifference) {
  Rng rng(19);
  Tensor logits = Tensor::randn(Shape{2, 3}, rng);
  std::vector<std::int32_t> labels{2, 0};
  LossResult r = softmax_cross_entropy(logits, labels);
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < logits.numel(); ++i) {
    Tensor lp = logits, lm = logits;
    lp[i] += eps;
    lm[i] -= eps;
    const double num = (softmax_cross_entropy(lp, labels).loss -
                        softmax_cross_entropy(lm, labels).loss) /
                       (2.0 * eps);
    EXPECT_NEAR(r.dlogits[i], num, 1e-3);
  }
}

TEST(SoftmaxCrossEntropy, CountsCorrectPredictions) {
  Tensor logits = Tensor::from_vector(Shape{2, 2}, {3, 1, 0, 2});
  LossResult r = softmax_cross_entropy(logits, {0, 1});
  EXPECT_EQ(r.correct, 2u);
  EXPECT_EQ(count_correct(logits, {1, 0}), 0u);
}

TEST(SoftmaxCrossEntropy, RejectsBadLabels) {
  Tensor logits = Tensor::zeros(Shape{1, 2});
  EXPECT_THROW(softmax_cross_entropy(logits, {5}), std::invalid_argument);
  EXPECT_THROW(softmax_cross_entropy(logits, {0, 1}), std::invalid_argument);
}

// --------------------------------------------------------------------- SGD

TEST(Sgd, PlainStepDescends) {
  Param p(Tensor::from_vector(Shape{1}, {1.0f}));
  Sgd sgd({&p}, Sgd::Config{0.1f, 0.0f, 0.0f, 0.0f});
  p.grad[0] = 2.0f;
  sgd.step();
  EXPECT_FLOAT_EQ(p.value[0], 0.8f);
  EXPECT_FLOAT_EQ(p.grad[0], 0.0f);  // zeroed after step
}

TEST(Sgd, MomentumAccumulates) {
  Param p(Tensor::from_vector(Shape{1}, {0.0f}));
  Sgd sgd({&p}, Sgd::Config{1.0f, 0.5f, 0.0f, 0.0f});
  p.grad[0] = 1.0f;
  sgd.step();  // v=1, w=-1
  p.grad[0] = 1.0f;
  sgd.step();  // v=1.5, w=-2.5
  EXPECT_FLOAT_EQ(p.value[0], -2.5f);
}

TEST(Sgd, WeightDecayShrinksWeights) {
  Param p(Tensor::from_vector(Shape{1}, {10.0f}));
  Sgd sgd({&p}, Sgd::Config{0.1f, 0.0f, 0.1f, 0.0f});
  p.grad[0] = 0.0f;
  sgd.step();
  EXPECT_NEAR(p.value[0], 10.0f - 0.1f * (0.1f * 10.0f), 1e-6);
}

TEST(Sgd, GlobalNormClipBoundsUpdate) {
  Param p(Tensor::from_vector(Shape{2}, {0.0f, 0.0f}));
  Sgd sgd({&p}, Sgd::Config{1.0f, 0.0f, 0.0f, 1.0f});
  p.grad[0] = 30.0f;
  p.grad[1] = 40.0f;  // norm 50, clip to 1 -> scale 0.02
  sgd.step();
  EXPECT_NEAR(p.value[0], -0.6f, 1e-5);
  EXPECT_NEAR(p.value[1], -0.8f, 1e-5);
}

// -------------------------------------------------------- gradient pinning

TEST(GradientPinning, PinsSignAndMagnitude) {
  Tensor grad = Tensor::from_vector(Shape{4}, {0.1f, -0.1f, 0.1f, -0.1f});
  std::optional<FaultView> view = FaultView{};
  view->clamps.push_back(WeightClamp{0, WeightClampKind::kPosStuck1});
  view->clamps.push_back(WeightClamp{1, WeightClampKind::kNegStuck0});
  apply_gradient_pinning(view, grad);
  EXPECT_GT(grad[0], 0.1f);             // pinned positive, amplified
  EXPECT_LT(grad[1], -0.1f);            // pinned negative
  EXPECT_FLOAT_EQ(grad[2], 0.1f);       // untouched
  EXPECT_FLOAT_EQ(grad[3], -0.1f);
  EXPECT_FLOAT_EQ(grad[0], -grad[1]);   // same magnitude
}

TEST(GradientPinning, NoViewIsNoOp) {
  Tensor grad = Tensor::from_vector(Shape{2}, {1.0f, 2.0f});
  std::optional<FaultView> none;
  apply_gradient_pinning(none, grad);
  EXPECT_FLOAT_EQ(grad[0], 1.0f);
  std::optional<FaultView> empty = FaultView{};
  apply_gradient_pinning(empty, grad);
  EXPECT_FLOAT_EQ(grad[1], 2.0f);
}

// ------------------------------------------------------------- fault views

TEST(FaultView, SingleArrayClampValues) {
  FaultView v;
  v.w_max = 0.5f;
  v.mode = MappingMode::kSingleArrayBias;
  EXPECT_FLOAT_EQ(v.clamp_value(0.2f, WeightClampKind::kPosStuck1), 0.5f);
  EXPECT_FLOAT_EQ(v.clamp_value(0.2f, WeightClampKind::kNegStuck1), 0.5f);
  EXPECT_FLOAT_EQ(v.clamp_value(-0.3f, WeightClampKind::kPosStuck0), -0.5f);
  EXPECT_FLOAT_EQ(v.clamp_value(0.3f, WeightClampKind::kNegStuck0), -0.5f);
}

TEST(FaultView, DifferentialClampValues) {
  FaultView v;
  v.w_max = 1.0f;
  v.mode = MappingMode::kDifferentialPair;
  // Positive weight 0.4: pos half active (0.4), neg half 0.
  EXPECT_FLOAT_EQ(v.clamp_value(0.4f, WeightClampKind::kPosStuck0), 0.0f);
  EXPECT_FLOAT_EQ(v.clamp_value(0.4f, WeightClampKind::kPosStuck1), 1.0f);
  EXPECT_FLOAT_EQ(v.clamp_value(0.4f, WeightClampKind::kNegStuck0), 0.4f);
  EXPECT_FLOAT_EQ(v.clamp_value(0.4f, WeightClampKind::kNegStuck1), -0.6f);
  // Negative weight -0.4: neg half active.
  EXPECT_FLOAT_EQ(v.clamp_value(-0.4f, WeightClampKind::kPosStuck0), -0.4f);
  EXPECT_FLOAT_EQ(v.clamp_value(-0.4f, WeightClampKind::kPosStuck1), 0.6f);
}

TEST(FaultView, ApplyCopiesAndClamps) {
  FaultView v;
  v.w_max = 1.0f;
  v.clamps.push_back(WeightClamp{1, WeightClampKind::kPosStuck1});
  const float in[3] = {0.1f, 0.2f, 0.3f};
  float out[3];
  v.apply(in, out, 3);
  EXPECT_FLOAT_EQ(out[0], 0.1f);
  EXPECT_FLOAT_EQ(out[1], 1.0f);
  EXPECT_FLOAT_EQ(out[2], 0.3f);
}

// -------------------------------------------------------------- composites

TEST(Sequential, ChainsForwardBackward) {
  Rng rng(20);
  Sequential seq;
  seq.emplace<Linear>(4, 3, rng);
  seq.emplace<ReLU>();
  seq.emplace<Linear>(3, 2, rng);
  Tensor x = Tensor::randn(Shape{2, 4}, rng);
  Tensor y = seq.forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{2, 2}));
  Tensor dx = seq.backward(Tensor::ones(y.shape()));
  EXPECT_EQ(dx.shape(), x.shape());
  EXPECT_EQ(seq.params().size(), 4u);  // 2x (weight + bias)
}

TEST(ResidualBlock, IdentitySkipShape) {
  Rng rng(21);
  ResidualBlock block(4, 4, 1, rng, "rb");
  Tensor x = Tensor::randn(Shape{2, 4, 4, 4}, rng);
  EXPECT_EQ(block.forward(x, false).shape(), x.shape());
  EXPECT_EQ(block.faultable().size(), 2u);  // no projection
}

TEST(ResidualBlock, ProjectionWhenShapeChanges) {
  Rng rng(22);
  ResidualBlock block(4, 8, 2, rng, "rb");
  Tensor x = Tensor::randn(Shape{1, 4, 8, 8}, rng);
  EXPECT_EQ(block.forward(x, false).shape(), (Shape{1, 8, 4, 4}));
  EXPECT_EQ(block.faultable().size(), 3u);  // conv1, conv2, proj
}

TEST(ResidualBlock, GradientFlowsThroughSkip) {
  Rng rng(23);
  ResidualBlock block(2, 2, 1, rng, "rb");
  Tensor x = Tensor::randn(Shape{2, 2, 3, 3}, rng);
  check_input_gradient(block, x, 6e-2);
}

TEST(FireModule, ConcatenatesExpandPaths) {
  Rng rng(24);
  FireModule fire(4, 2, 3, 5, rng, "fire");
  Tensor x = Tensor::randn(Shape{2, 4, 4, 4}, rng);
  Tensor y = fire.forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{2, 8, 4, 4}));
  EXPECT_EQ(fire.out_channels(), 8u);
  EXPECT_EQ(fire.faultable().size(), 3u);
}

TEST(FireModule, GradientMatchesFiniteDifference) {
  Rng rng(25);
  FireModule fire(2, 2, 2, 2, rng, "fire");
  Tensor x = Tensor::randn(Shape{1, 2, 3, 3}, rng);
  check_input_gradient(fire, x, 6e-2);
}

TEST(CollectFaultable, FindsNestedWeightLayers) {
  Rng rng(26);
  Sequential seq;
  seq.emplace<Conv2d>(3, 4, 3, 1, 1, rng);
  seq.emplace<ReLU>();
  seq.emplace<ResidualBlock>(4, 8, 2, rng, "rb");
  seq.emplace<FireModule>(8, 2, 4, 4, rng, "f");
  seq.emplace<Linear>(8, 2, rng);
  // conv + (conv1, conv2, proj) + (squeeze, e1, e3) + fc = 8
  EXPECT_EQ(collect_faultable(seq).size(), 8u);
}

TEST(Visit, ReachesEveryBatchNorm) {
  Rng rng(27);
  Sequential seq;
  seq.emplace<BatchNorm>(3);
  seq.emplace<ResidualBlock>(3, 3, 1, rng, "rb");  // 2 BNs inside
  std::size_t count = 0;
  seq.visit([&](Layer& l) {
    if (dynamic_cast<BatchNorm*>(&l)) ++count;
  });
  EXPECT_EQ(count, 3u);
}

}  // namespace
}  // namespace remapd
