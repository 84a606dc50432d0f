#include <gtest/gtest.h>

#include <cmath>

#include "tensor/gemm.hpp"
#include "tensor/tensor.hpp"

namespace remapd {
namespace {

TEST(Shape, NumelAndRank) {
  EXPECT_EQ((Shape{2, 3}).numel(), 6u);
  EXPECT_EQ((Shape{4}).numel(), 4u);
  EXPECT_EQ((Shape{2, 3, 4, 5}).numel(), 120u);
  EXPECT_EQ((Shape{2, 3}).rank(), 2u);
  EXPECT_EQ(Shape{}.numel(), 0u);
}

TEST(Shape, EqualityAndStr) {
  EXPECT_EQ((Shape{2, 3}), (Shape{2, 3}));
  EXPECT_FALSE((Shape{2, 3}) == (Shape{3, 2}));
  EXPECT_EQ((Shape{2, 3}).str(), "[2x3]");
}

TEST(Tensor, ZerosOnesFill) {
  Tensor z = Tensor::zeros(Shape{2, 3});
  Tensor o = Tensor::ones(Shape{2, 3});
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(z[i], 0.0f);
    EXPECT_EQ(o[i], 1.0f);
  }
  z.fill(2.5f);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(z[i], 2.5f);
}

TEST(Tensor, FromVectorChecksSize) {
  EXPECT_NO_THROW(Tensor::from_vector(Shape{2, 2}, {1, 2, 3, 4}));
  EXPECT_THROW(Tensor::from_vector(Shape{2, 2}, {1, 2, 3}),
               std::invalid_argument);
}

TEST(Tensor, UninitializedHasShapeAndIsNaNUnderAsan) {
  Tensor t = Tensor::uninitialized(Shape{2, 3, 4, 5});
  EXPECT_EQ(t.shape(), (Shape{2, 3, 4, 5}));
  EXPECT_EQ(t.numel(), 120u);
#ifdef __SANITIZE_ADDRESS__
  // A read before the producer's write must surface as non-finite.
  for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_TRUE(std::isnan(t[i]));
#endif
  t.fill(1.5f);
  EXPECT_EQ(Tensor(t).sum(), 180.0f);  // copies carry the values
}

TEST(Tensor, At2DAnd4D) {
  Tensor t = Tensor::from_vector(Shape{2, 3}, {0, 1, 2, 3, 4, 5});
  EXPECT_EQ(t.at(1, 2), 5.0f);
  EXPECT_EQ(t.at(0, 1), 1.0f);

  Tensor u = Tensor::zeros(Shape{2, 3, 4, 5});
  u.at(1, 2, 3, 4) = 7.0f;
  EXPECT_EQ(u[(((1 * 3) + 2) * 4 + 3) * 5 + 4], 7.0f);
}

TEST(Tensor, ReshapePreservesDataAndChecksNumel) {
  Tensor t = Tensor::from_vector(Shape{2, 3}, {0, 1, 2, 3, 4, 5});
  Tensor r = t.reshaped(Shape{3, 2});
  EXPECT_EQ(r.at(2, 1), 5.0f);
  EXPECT_THROW(t.reshaped(Shape{4, 2}), std::invalid_argument);
}

TEST(Tensor, AddAxpyScale) {
  Tensor a = Tensor::from_vector(Shape{3}, {1, 2, 3});
  Tensor b = Tensor::from_vector(Shape{3}, {10, 20, 30});
  a.add_(b);
  EXPECT_EQ(a[1], 22.0f);
  a.axpy_(0.5f, b);
  EXPECT_EQ(a[2], 48.0f);
  a.scale_(2.0f);
  EXPECT_EQ(a[0], 32.0f);
  Tensor wrong = Tensor::zeros(Shape{4});
  EXPECT_THROW(a.add_(wrong), std::invalid_argument);
}

TEST(Tensor, SumAbsMaxArgmax) {
  Tensor t = Tensor::from_vector(Shape{4}, {1, -5, 3, 2});
  EXPECT_FLOAT_EQ(t.sum(), 1.0f);
  EXPECT_FLOAT_EQ(t.abs_max(), 5.0f);
  EXPECT_EQ(t.argmax(), 2u);
}

TEST(Tensor, TransposeRoundTrip) {
  Rng rng(7);
  Tensor t = Tensor::randn(Shape{5, 3}, rng);
  Tensor tt = t.transposed().transposed();
  EXPECT_EQ(max_abs_diff(t, tt), 0.0f);
  EXPECT_EQ(t.transposed().shape(), (Shape{3, 5}));
}

TEST(Tensor, RandnStatistics) {
  Rng rng(11);
  Tensor t = Tensor::randn(Shape{10000}, rng, 2.0f);
  double mean = 0.0, var = 0.0;
  for (std::size_t i = 0; i < t.numel(); ++i) mean += t[i];
  mean /= static_cast<double>(t.numel());
  for (std::size_t i = 0; i < t.numel(); ++i)
    var += (t[i] - mean) * (t[i] - mean);
  var /= static_cast<double>(t.numel());
  EXPECT_NEAR(mean, 0.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(Tensor, KaimingScalesWithFanIn) {
  Rng rng(13);
  Tensor t = Tensor::kaiming(Shape{64, 128}, 128, rng);
  double var = 0.0;
  for (std::size_t i = 0; i < t.numel(); ++i) var += t[i] * t[i];
  var /= static_cast<double>(t.numel());
  EXPECT_NEAR(var, 2.0 / 128.0, 0.3 * 2.0 / 128.0);
}

// ------------------------------------------------------------------- GEMM

TEST(Gemm, SmallKnownProduct) {
  Tensor a = Tensor::from_vector(Shape{2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::from_vector(Shape{2, 2}, {5, 6, 7, 8});
  Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 43.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 50.0f);
}

TEST(Gemm, IdentityIsNeutral) {
  Rng rng(3);
  Tensor a = Tensor::randn(Shape{4, 4}, rng);
  Tensor eye = Tensor::zeros(Shape{4, 4});
  for (std::size_t i = 0; i < 4; ++i) eye.at(i, i) = 1.0f;
  EXPECT_LT(max_abs_diff(matmul(a, eye), a), 1e-6f);
  EXPECT_LT(max_abs_diff(matmul(eye, a), a), 1e-6f);
}

TEST(Gemm, InnerDimMismatchThrows) {
  Tensor a = Tensor::zeros(Shape{2, 3});
  Tensor b = Tensor::zeros(Shape{4, 2});
  EXPECT_THROW(matmul(a, b), std::invalid_argument);
}

TEST(Gemm, BetaAccumulates) {
  Tensor a = Tensor::from_vector(Shape{1, 1}, {2});
  Tensor b = Tensor::from_vector(Shape{1, 1}, {3});
  float c = 10.0f;
  gemm(false, false, 1, 1, 1, 1.0f, a.data(), 1, b.data(), 1, 1.0f, &c, 1);
  EXPECT_FLOAT_EQ(c, 16.0f);
  gemm(false, false, 1, 1, 1, 2.0f, a.data(), 1, b.data(), 1, 0.0f, &c, 1);
  EXPECT_FLOAT_EQ(c, 12.0f);
}

/// Naive reference multiply for the property sweep.
Tensor naive_matmul(const Tensor& a, bool ta, const Tensor& b, bool tb) {
  const std::size_t m = ta ? a.shape()[1] : a.shape()[0];
  const std::size_t k = ta ? a.shape()[0] : a.shape()[1];
  const std::size_t n = tb ? b.shape()[0] : b.shape()[1];
  Tensor c(Shape{m, n});
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        const float av = ta ? a.at(p, i) : a.at(i, p);
        const float bv = tb ? b.at(j, p) : b.at(p, j);
        s += static_cast<double>(av) * bv;
      }
      c.at(i, j) = static_cast<float>(s);
    }
  return c;
}

struct GemmCase {
  std::size_t m, n, k;
  bool ta, tb;
};

class GemmPropertyTest : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmPropertyTest, MatchesNaiveReference) {
  const GemmCase& p = GetParam();
  Rng rng(1000 + p.m * 31 + p.n * 7 + p.k + (p.ta ? 2 : 0) + (p.tb ? 1 : 0));
  Tensor a = Tensor::randn(p.ta ? Shape{p.k, p.m} : Shape{p.m, p.k}, rng);
  Tensor b = Tensor::randn(p.tb ? Shape{p.n, p.k} : Shape{p.k, p.n}, rng);
  Tensor c = matmul(a, p.ta, b, p.tb);
  Tensor ref = naive_matmul(a, p.ta, b, p.tb);
  EXPECT_LT(max_abs_diff(c, ref), 1e-3f)
      << "m=" << p.m << " n=" << p.n << " k=" << p.k;
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, GemmPropertyTest,
    ::testing::Values(
        GemmCase{1, 1, 1, false, false}, GemmCase{3, 5, 7, false, false},
        GemmCase{32, 32, 32, false, false}, GemmCase{33, 65, 70, false, false},
        GemmCase{64, 100, 27, false, false}, GemmCase{5, 3, 9, true, false},
        GemmCase{5, 3, 9, false, true}, GemmCase{5, 3, 9, true, true},
        GemmCase{40, 33, 65, true, false}, GemmCase{40, 33, 65, false, true},
        GemmCase{40, 33, 65, true, true}, GemmCase{1, 128, 50, false, false},
        GemmCase{128, 1, 50, false, true}));

}  // namespace
}  // namespace remapd
