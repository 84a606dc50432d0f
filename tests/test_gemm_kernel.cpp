// Tests for the packed SIMD GEMM micro-kernel layer (tensor/gemm_kernel):
// golden values vs a double-precision reference triple loop across
// NN/NT/TN/TT and tile-boundary shapes, BLAS beta/alpha semantics, the
// NaN/Inf zero-skip contract (sparsity must never mask non-finite
// operands), bitwise 1-vs-4-thread determinism, fused-vs-unfused bitwise
// agreement, allocation-free steady state for the transposed paths (which
// previously materialized fresh transpose buffers per call), and the flops
// telemetry regression (degenerate calls must record zero flops), and the
// implicit-GEMM ConvOperand packer against the im2col panel it replaces.
// The golden sweep, the store contract (the micro-kernel writes C itself:
// bytes equal to clearing C and merging each depth chunk) and the
// ConvOperand check run under every fp32 micro-kernel variant the CPU
// supports and must agree bitwise across them; a short training must give
// the same bytes under every fp32 x int8 kernel pairing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/conv2d.hpp"
#include "telemetry/telemetry.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_int8.hpp"
#include "tensor/gemm_int8_testing.hpp"
#include "tensor/gemm_kernel.hpp"
#include "tensor/gemm_testing.hpp"
#include "tensor/im2col.hpp"
#include "trainer/fault_aware_trainer.hpp"
#include "trainer/scenarios.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace remapd {
namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

/// Scoped thread-count override (mirrors test_parallel.cpp).
class ThreadGuard {
 public:
  explicit ThreadGuard(std::size_t n) : old_(parallel_threads()) {
    set_parallel_threads(n);
  }
  ~ThreadGuard() { set_parallel_threads(old_); }

 private:
  std::size_t old_;
};

/// Reference: C = alpha * op(A) * op(B) + beta * C with double accumulation,
/// strictly the mathematical definition (no blocking, no skipping).
void ref_gemm(bool ta, bool tb, std::size_t m, std::size_t n, std::size_t k,
              float alpha, const float* a, std::size_t lda, const float* b,
              std::size_t ldb, float beta, float* c, std::size_t ldc) {
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        const float av = ta ? a[p * lda + i] : a[i * lda + p];
        const float bv = tb ? b[j * ldb + p] : b[p * ldb + j];
        s += static_cast<double>(av) * bv;
      }
      const double base = beta == 0.0f ? 0.0 : beta * c[i * ldc + j];
      c[i * ldc + j] = static_cast<float>(base + alpha * s);
    }
}

Tensor random_matrix(std::size_t r, std::size_t cdim, Rng& rng) {
  return Tensor::randn(Shape{r, cdim}, rng);
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Runs `body(out)` once under every fp32 kernel variant this CPU runs
/// (the portable one always), expects each variant's `out` to be bitwise
/// the first's, then restores the dispatched variant.
template <class Body>
void for_each_fp32_kernel(Body&& body) {
  struct Restore {
    std::string name = gemm_kernel_name();
    ~Restore() { gemm_testing::force_kernel(name); }
  } restore;
  const std::vector<std::string> kernels = gemm_testing::supported_kernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_EQ(kernels.front(), "portable");
  EXPECT_EQ(kernels.back(), restore.name) << "dispatch picks the best";
  std::vector<float> first;
  for (const std::string& name : kernels) {
    SCOPED_TRACE("fp32 kernel " + name);
    gemm_testing::force_kernel(name);
    ASSERT_EQ(std::string(gemm_kernel_name()), name);
    std::vector<float> out;
    body(out);
    if (name == kernels.front())
      first = std::move(out);
    else
      EXPECT_TRUE(same_bits(out, first)) << name << " vs " << kernels.front();
  }
}

TEST(GemmKernel, KernelOverrideRejectsUnknownVariants) {
  EXPECT_THROW(gemm_testing::force_kernel("avx9000"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Golden values vs the reference triple loop
// ---------------------------------------------------------------------------

TEST(GemmKernel, GoldenSweepAllTransposesAndTailShapes) {
  // Sizes straddle every tile boundary: micro-tile (kMR=6, kNR=16), the
  // row-partition grain (kMC=48), and skinny/tail shapes.
  const std::size_t sizes[] = {1, 3, 6, 7, 15, 16, 17, 47, 48, 49, 100};
  for_each_fp32_kernel([&](std::vector<float>& out) {
    Rng rng(2025);
    for (const std::size_t m : sizes)
      for (const std::size_t n : sizes)
        for (const std::size_t k : sizes)
          for (int t = 0; t < 4; ++t) {
            const bool ta = t & 2, tb = t & 1;
            const Tensor a = random_matrix(ta ? k : m, ta ? m : k, rng);
            const Tensor b = random_matrix(tb ? n : k, tb ? k : n, rng);
            const Tensor c = matmul(a, ta, b, tb);
            std::vector<float> ref(m * n, 0.0f);
            ref_gemm(ta, tb, m, n, k, 1.0f, a.data(), a.shape()[1], b.data(),
                     b.shape()[1], 0.0f, ref.data(), n);
            for (std::size_t e = 0; e < m * n; ++e)
              ASSERT_NEAR(c[e], ref[e], 2e-4 * (std::abs(ref[e]) + 1.0))
                  << "m=" << m << " n=" << n << " k=" << k << " ta=" << ta
                  << " tb=" << tb << " e=" << e;
            out.insert(out.end(), c.data(), c.data() + c.numel());
          }
  });
}

TEST(GemmKernel, AlphaBetaSemantics) {
  Rng rng(7);
  const std::size_t m = 13, n = 21, k = 35;
  const Tensor a = random_matrix(m, k, rng);
  const Tensor b = random_matrix(k, n, rng);
  for (const float alpha : {1.0f, 2.5f, -0.75f})
    for (const float beta : {0.0f, 1.0f, 0.5f}) {
      std::vector<float> c(m * n), ref(m * n);
      for (std::size_t e = 0; e < m * n; ++e) c[e] = ref[e] = 0.125f * e;
      gemm(false, false, m, n, k, alpha, a.data(), k, b.data(), n, beta,
           c.data(), n);
      ref_gemm(false, false, m, n, k, alpha, a.data(), k, b.data(), n, beta,
               ref.data(), n);
      for (std::size_t e = 0; e < m * n; ++e)
        ASSERT_NEAR(c[e], ref[e], 2e-4 * (std::abs(ref[e]) + 1.0))
            << "alpha=" << alpha << " beta=" << beta << " e=" << e;
    }
}

TEST(GemmKernel, BetaZeroOverwritesNaNWithoutReadingC) {
  // BLAS semantics: beta == 0 must store, not accumulate — C may hold NaN
  // or garbage from an uninitialized buffer.
  Rng rng(9);
  const Tensor a = random_matrix(5, 4, rng);
  const Tensor b = random_matrix(4, 3, rng);
  std::vector<float> c(5 * 3, kNaN);
  gemm(false, false, 5, 3, 4, 1.0f, a.data(), 4, b.data(), 3, 0.0f, c.data(),
       3);
  for (const float v : c) EXPECT_TRUE(std::isfinite(v));

  // Degenerate k == 0 and alpha == 0 also clear under beta == 0.
  std::fill(c.begin(), c.end(), kNaN);
  gemm(false, false, 5, 3, 0, 1.0f, a.data(), 4, b.data(), 3, 0.0f, c.data(),
       3);
  for (const float v : c) EXPECT_EQ(v, 0.0f);
  std::fill(c.begin(), c.end(), kNaN);
  gemm(false, false, 5, 3, 4, 0.0f, a.data(), 4, b.data(), 3, 0.0f, c.data(),
       3);
  for (const float v : c) EXPECT_EQ(v, 0.0f);
}

// ---------------------------------------------------------------------------
// Store contract: the micro-kernel updates C itself
// ---------------------------------------------------------------------------

/// The documented per-element order, one element at a time: clear (beta
/// == 0) or scale C once, then add each kKC depth chunk's fused,
/// ascending-k sum, each chunk starting from +0. A row-major, B row-major.
void zero_then_merge_ref(std::size_t m, std::size_t n, std::size_t k,
                         float alpha, const float* a, const float* b,
                         float beta, float* c) {
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      float cij = c[i * n + j];
      if (beta == 0.0f) cij = 0.0f;
      else if (beta != 1.0f) cij *= beta;
      for (std::size_t pc = 0; pc < k; pc += kKC) {
        float acc = 0.0f;
        for (std::size_t p = pc; p < std::min(k, pc + kKC); ++p)
          acc = std::fma(alpha * a[i * k + p], b[p * n + j], acc);
        cij += acc;
      }
      c[i * n + j] = cij;
    }
}

TEST(GemmKernel, StoreContractUnderEveryKernel) {
  // Full tiles (12 x 32), row and column tails (7 x 19, 13 x 37), and
  // depths of one and of three kKC chunks.
  const std::size_t shapes[][2] = {{12, 32}, {7, 19}, {13, 37}};
  const std::size_t depths[] = {5, 2 * kKC + 5};
  for_each_fp32_kernel([&](std::vector<float>& out) {
    Rng rng(77);
    for (const auto& [m, n] : shapes)
      for (const std::size_t k : depths) {
        SCOPED_TRACE("m=" + std::to_string(m) + " n=" + std::to_string(n) +
                     " k=" + std::to_string(k));
        const Tensor a = random_matrix(m, k, rng);
        const Tensor b = random_matrix(k, n, rng);

        // beta == 0 over NaN: C is written, never read.
        std::vector<float> c(m * n, kNaN);
        gemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
             c.data(), n);
        for (const float v : c) ASSERT_TRUE(std::isfinite(v));

        // Every beta class, bytes equal to the zero-then-merge order.
        for (const float beta : {0.0f, 1.0f, 0.5f, -2.0f}) {
          std::vector<float> got(m * n), want(m * n);
          for (std::size_t e = 0; e < m * n; ++e)
            got[e] = want[e] = 0.25f * static_cast<float>(e % 7) - 0.5f;
          gemm(false, false, m, n, k, 1.5f, a.data(), k, b.data(), n, beta,
               got.data(), n);
          zero_then_merge_ref(m, n, k, 1.5f, a.data(), b.data(), beta,
                              want.data());
          EXPECT_TRUE(same_bits(got, want)) << "beta=" << beta;
          out.insert(out.end(), got.begin(), got.end());
        }

        // Accumulators that underflow to -0: beta == 0 lands them as +0
        // (0 + -0), beta == 1 over a -0 C keeps -0 (-0 + -0), tails
        // included.
        std::vector<float> tiny_a(m * k, -1e-30f), tiny_b(k * n, 1e-30f);
        std::fill(c.begin(), c.end(), kNaN);
        gemm(false, false, m, n, k, 1.0f, tiny_a.data(), k, tiny_b.data(), n,
             0.0f, c.data(), n);
        for (const float v : c) {
          ASSERT_EQ(v, 0.0f);
          ASSERT_FALSE(std::signbit(v)) << "-0 stored raw";
        }
        std::fill(c.begin(), c.end(), -0.0f);
        gemm(false, false, m, n, k, 1.0f, tiny_a.data(), k, tiny_b.data(), n,
             1.0f, c.data(), n);
        for (const float v : c) {
          ASSERT_EQ(v, 0.0f);
          ASSERT_TRUE(std::signbit(v)) << "-0 + -0 must stay -0";
        }
      }
  });
}

// ---------------------------------------------------------------------------
// NaN/Inf zero-skip contract
// ---------------------------------------------------------------------------

TEST(GemmKernel, ZeroAEntriesNeverMaskNonFiniteB) {
  // Every product is issued: a zero A entry against NaN/Inf in B must
  // surface as NaN (0 * NaN = 0 * Inf = NaN), at every tile position —
  // including column tails past kNR and row tails past kMR.
  const std::size_t m = 8, n = 19, k = 5;
  Tensor a = Tensor::zeros(Shape{m, k});
  Tensor b = Tensor::zeros(Shape{k, n});
  b.at(2, 0) = kNaN;
  b.at(3, 17) = kInf;  // column-tail lane
  const Tensor c = matmul(a, b);
  for (std::size_t i = 0; i < m; ++i) {
    EXPECT_TRUE(std::isnan(c.at(i, 0))) << i;
    EXPECT_TRUE(std::isnan(c.at(i, 17))) << i;
    EXPECT_EQ(c.at(i, 5), 0.0f) << i;  // finite columns stay clean
  }
}

TEST(GemmKernel, NonFiniteAPropagatesThroughZeroB) {
  const std::size_t m = 7, n = 4, k = 6;
  Tensor a = Tensor::zeros(Shape{m, k});
  Tensor b = Tensor::zeros(Shape{k, n});
  a.at(6, 1) = kInf;  // row-tail strip
  const Tensor c = matmul(a, b);
  for (std::size_t j = 0; j < n; ++j)
    EXPECT_TRUE(std::isnan(c.at(6, j))) << j;  // Inf * 0 = NaN
  for (std::size_t j = 0; j < n; ++j) EXPECT_EQ(c.at(0, j), 0.0f);
}

TEST(GemmKernel, AlphaZeroIssuesNoProductsSoNaNStaysOut) {
  // alpha == 0 short-circuits before any multiply: non-finite operands must
  // NOT reach C (only the beta scale runs) — the BLAS degenerate contract.
  Tensor a = Tensor::zeros(Shape{3, 3});
  Tensor b = Tensor::zeros(Shape{3, 3});
  a.fill(kNaN);
  b.fill(kInf);
  std::vector<float> c(9, 2.0f);
  gemm(false, false, 3, 3, 3, 0.0f, a.data(), 3, b.data(), 3, 0.5f, c.data(),
       3);
  for (const float v : c) EXPECT_EQ(v, 1.0f);
}

// ---------------------------------------------------------------------------
// Thread-count invariance and fused-vs-unfused agreement
// ---------------------------------------------------------------------------

TEST(GemmKernel, BitwiseThreadInvarianceAcrossTransposes) {
  Rng rng(41);
  const std::size_t m = 53, n = 37, k = 61;  // nothing tile-aligned
  for (int t = 0; t < 4; ++t) {
    const bool ta = t & 2, tb = t & 1;
    const Tensor a = random_matrix(ta ? k : m, ta ? m : k, rng);
    const Tensor b = random_matrix(tb ? n : k, tb ? k : n, rng);
    Tensor c1, c4;
    {
      ThreadGuard guard(1);
      c1 = matmul(a, ta, b, tb);
    }
    {
      ThreadGuard guard(4);
      c4 = matmul(a, ta, b, tb);
    }
    ASSERT_EQ(0, std::memcmp(c1.data(), c4.data(), m * n * sizeof(float)))
        << "ta=" << ta << " tb=" << tb;
  }
}

TEST(GemmKernel, FusedPackMatchesGemmBitwise) {
  // GemmAPack::multiply must perform exactly gemm()'s arithmetic: the fused
  // conv path and the plain path agree bitwise, so serving/migration CSV
  // stability cannot depend on which path a layer took.
  Rng rng(43);
  const std::size_t m = 32, n = 100, k = 27;
  const Tensor a = random_matrix(m, k, rng);
  const Tensor b = random_matrix(k, n, rng);
  const Tensor via_gemm = matmul(a, b);

  GemmAPack pack;
  pack.pack(m, k, 1.0f, StridedOperand{a.data(), k, 1});
  Tensor via_pack(Shape{m, n});
  pack.multiply(n, b.data(), n, 0.0f, via_pack.data(), n);
  EXPECT_EQ(0,
            std::memcmp(via_gemm.data(), via_pack.data(),
                        m * n * sizeof(float)));

  // Same for a transposed panel (the conv backward path packs We^T via
  // strides): A^T * B' must match gemm(true, false, ...) bitwise.
  GemmAPack tpack;
  tpack.pack(k, m, 1.0f, StridedOperand{a.data(), 1, k});
  Tensor bprime(Shape{m, 16});
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < 16; ++j)
      bprime[i * 16 + j] = via_gemm[i * n + j];
  Tensor from_pack(Shape{k, 16});
  tpack.multiply(16, bprime.data(), 16, 0.0f, from_pack.data(), 16);
  Tensor from_gemm(Shape{k, 16});
  gemm(true, false, k, 16, m, 1.0f, a.data(), k, bprime.data(), 16, 0.0f,
       from_gemm.data(), 16);
  EXPECT_EQ(0,
            std::memcmp(from_pack.data(), from_gemm.data(),
                        k * 16 * sizeof(float)));
}

TEST(GemmKernel, FusedConvForwardPropagatesNonFiniteWeights) {
  // The fused forward packs the effective weights once; a diverged (NaN)
  // or full-scale-stuck (Inf-ish) weight must still poison its output
  // plane even when the input patch is all zero — 0 * NaN = NaN.
  Rng rng(3);
  Conv2d conv(1, 2, 1, 1, 0, rng);
  conv.weight_param().value[0] = kNaN;
  conv.weight_param().value[1] = 0.5f;
  const Tensor x = Tensor::zeros(Shape{1, 1, 3, 3});
  for (const bool train : {true, false}) {
    const Tensor y = conv.forward(x, train);
    for (std::size_t p = 0; p < 9; ++p) {
      EXPECT_TRUE(std::isnan(y[p])) << "train=" << train << " p=" << p;
      EXPECT_EQ(y[9 + p], 0.0f) << "train=" << train << " p=" << p;
    }
  }
}

// ---------------------------------------------------------------------------
// ConvOperand: conv GEMM operands packed straight from padded images
// ---------------------------------------------------------------------------

struct PackCase {
  const char* what;
  ConvGeom g;
  std::size_t samples, out_ch;
};

const std::vector<PackCase>& pack_cases() {
  static const std::vector<PackCase> cases{
      // 1280 block columns: a second kNC panel.
      {"3x3 s1 p1 16x16, every strip one run", {3, 16, 16, 3, 3, 1, 1}, 5, 7},
      // OH*OW = 384: the transposed depth passes kKC.
      {"3x3 s1 p1 24x16", {2, 24, 16, 3, 3, 1, 1}, 2, 5},
      {"3x3 s1 p1 5x9, runs break mid-strip", {3, 5, 9, 3, 3, 1, 1}, 3, 5},
      {"3x3 s2 p1", {4, 8, 8, 3, 3, 2, 1}, 3, 7},
      {"1x1 s2 p0", {4, 8, 8, 1, 1, 2, 0}, 3, 7},
      {"1x1 s1 p0", {4, 6, 6, 1, 1, 1, 0}, 3, 7},
      // C*k*k = 300: the block depth passes kKC.
      {"5x5 s1 p2", {12, 7, 7, 5, 5, 1, 2}, 3, 5},
      // 28 columns: a strip of 4 samples, then a partial strip of 3.
      {"2x2 output, strips span 4 samples", {3, 4, 4, 3, 3, 2, 1}, 7, 5},
  };
  return cases;
}

/// The forward block product y = W * cols and every sample's dW_i =
/// dy_i * cols_i^T, once over a materialized im2col panel and once over
/// ConvOperands of the padded images.
struct ConvProducts {
  std::vector<float> y, dw;
};

ConvProducts conv_products(const PackCase& k, const Tensor& x,
                           const Tensor& w, const Tensor& dy, bool implicit) {
  const ConvGeom& g = k.g;
  const std::size_t cr = g.col_rows(), cc = g.col_cols();
  const std::size_t n = k.samples * cc, psz = g.padded_size();
  const std::size_t plane = g.channels * g.height * g.width;
  std::vector<float> panel(cr * n), padded(k.samples * psz);
  for (std::size_t i = 0; i < k.samples; ++i) {
    im2col(x.data() + i * plane, g, panel.data() + i * cc, n);
    pad_image(x.data() + i * plane, g, padded.data() + i * psz);
  }
  ConvOffsets offs;
  offs.build(g);
  const auto op = [&](std::size_t i, bool transposed) {
    return ConvOperand{padded.data() + i * psz, psz, offs.row_off.data(),
                       offs.col_off.data(), cc, transposed};
  };

  ConvProducts r{std::vector<float>(k.out_ch * n, kNaN),
                 std::vector<float>(k.samples * k.out_ch * cr, kNaN)};
  GemmAPack pack;
  pack.pack(k.out_ch, cr, 1.0f, StridedOperand{w.data(), cr, 1});
  if (implicit)
    pack.multiply(n, op(0, false), 0.0f, r.y.data(), n);
  else
    pack.multiply(n, panel.data(), n, 0.0f, r.y.data(), n);
  for (std::size_t i = 0; i < k.samples; ++i) {
    const float* dyi = dy.data() + i * k.out_ch * cc;
    float* dwi = r.dw.data() + i * k.out_ch * cr;
    if (implicit)
      gemm(false, k.out_ch, cr, cc, 1.0f, dyi, cc, op(i, true), 0.0f, dwi,
           cr);
    else
      gemm(false, true, k.out_ch, cr, cc, 1.0f, dyi, cc,
           panel.data() + i * cc, n, 0.0f, dwi, cr);
  }
  return r;
}

TEST(GemmConvOperand, MatchesIm2colPanelBitwise) {
  for_each_fp32_kernel([](std::vector<float>& out) {
    for (const PackCase& k : pack_cases()) {
      const ConvGeom& g = k.g;
      Rng rng(g.height * 31 + g.width * 7 + g.kernel_h + g.stride);
      const Tensor x =
          Tensor::randn(Shape{k.samples, g.channels, g.height, g.width}, rng);
      const Tensor w = random_matrix(k.out_ch, g.col_rows(), rng);
      const Tensor dy =
          random_matrix(k.samples * k.out_ch, g.col_cols(), rng);
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        ThreadGuard guard(threads);
        const ConvProducts want = conv_products(k, x, w, dy, false);
        const ConvProducts got = conv_products(k, x, w, dy, true);
        EXPECT_TRUE(same_bits(got.y, want.y))
            << k.what << ", threads=" << threads << ": block operand (y)";
        EXPECT_TRUE(same_bits(got.dw, want.dw))
            << k.what << ", threads=" << threads
            << ": transposed operand (dW)";
        out.insert(out.end(), got.y.begin(), got.y.end());
        out.insert(out.end(), got.dw.begin(), got.dw.end());
      }
    }
  });
}

TEST(GemmConvOperand, NonFiniteInputReachesYAndDw) {
  const PackCase& k = pack_cases()[2];  // 5x9: gathered strips
  const ConvGeom& g = k.g;
  Rng rng(5);
  Tensor x =
      Tensor::randn(Shape{k.samples, g.channels, g.height, g.width}, rng);
  const std::size_t plane = g.channels * g.height * g.width;
  x[1 * plane + 2 * g.width + 4] = kNaN;  // sample 1, channel 0, interior
  x[2 * plane + plane - 1] = kInf;        // sample 2, last channel, corner
  const Tensor w = random_matrix(k.out_ch, g.col_rows(), rng);
  const Tensor dy = random_matrix(k.samples * k.out_ch, g.col_cols(), rng);
  const ConvProducts want = conv_products(k, x, w, dy, false);
  const ConvProducts got = conv_products(k, x, w, dy, true);
  EXPECT_TRUE(same_bits(got.y, want.y));
  EXPECT_TRUE(same_bits(got.dw, want.dw));

  const std::size_t cc = g.col_cols(), n = k.samples * cc;
  const std::size_t dw_plane = k.out_ch * g.col_rows();
  for (const std::size_t s : {std::size_t{1}, std::size_t{2}}) {
    bool y_bad = false, dw_bad = false;
    for (std::size_t o = 0; o < k.out_ch; ++o)
      for (std::size_t q = 0; q < cc; ++q)
        y_bad = y_bad || !std::isfinite(got.y[o * n + s * cc + q]);
    for (std::size_t e = 0; e < dw_plane; ++e)
      dw_bad = dw_bad || !std::isfinite(got.dw[s * dw_plane + e]);
    EXPECT_TRUE(y_bad) << "sample " << s << ": y";
    EXPECT_TRUE(dw_bad) << "sample " << s << ": dW";
  }
  for (std::size_t e = 0; e < dw_plane; ++e)
    ASSERT_TRUE(std::isfinite(got.dw[e])) << "sample 0 stays finite";
}

TEST(GemmConvOperand, GemmOverloadRecordsTheSameTelemetry) {
  // The conv dW product goes through gemm(): one call and 2*m*n*k flops,
  // exactly as the strided product over the im2col panel records.
  const PackCase& k = pack_cases()[3];
  const ConvGeom& g = k.g;
  Rng rng(8);
  const Tensor x =
      Tensor::randn(Shape{k.samples, g.channels, g.height, g.width}, rng);
  const Tensor w = random_matrix(k.out_ch, g.col_rows(), rng);
  const Tensor dy = random_matrix(k.samples * k.out_ch, g.col_cols(), rng);
  auto& reg = telemetry::Registry::instance();
  telemetry::Counter& calls = reg.counter("tensor.gemm.calls");
  telemetry::Counter& flops = reg.counter("tensor.gemm.flops");
  telemetry::set_enabled(true);
  std::uint64_t c0 = calls.value(), f0 = flops.value();
  conv_products(k, x, w, dy, false);
  const std::uint64_t panel_calls = calls.value() - c0;
  const std::uint64_t panel_flops = flops.value() - f0;
  c0 = calls.value();
  f0 = flops.value();
  conv_products(k, x, w, dy, true);
  telemetry::set_enabled(false);
  EXPECT_EQ(panel_calls, k.samples);
  EXPECT_EQ(panel_flops,
            2ull * k.samples * k.out_ch * g.col_rows() * g.col_cols());
  EXPECT_EQ(calls.value() - c0, panel_calls);
  EXPECT_EQ(flops.value() - f0, panel_flops);
}

// ---------------------------------------------------------------------------
// Allocation-free steady state (NT/TN previously heap-allocated per call)
// ---------------------------------------------------------------------------

TEST(GemmKernel, TransposedPathsDoNotAllocateInSteadyState) {
  ThreadGuard guard(1);  // one thread -> one deterministic set of arenas
  Rng rng(17);
  const std::size_t m = 32, n = 576, k = 100;
  const Tensor a = random_matrix(m, k, rng);      // NT: dy * col^T shape
  const Tensor bt = random_matrix(n, k, rng);     // operand stored n x k
  const Tensor at = random_matrix(k, m, rng);     // TN operand
  const Tensor b = random_matrix(k, n, rng);
  Tensor c(Shape{m, n});
  const auto call_both = [&] {
    gemm(false, true, m, n, k, 1.0f, a.data(), k, bt.data(), k, 1.0f,
         c.data(), n);
    gemm(true, false, m, n, k, 1.0f, at.data(), m, b.data(), n, 0.0f,
         c.data(), n);
  };
  for (int i = 0; i < 3; ++i) call_both();  // warm the arenas
  const std::uint64_t warm = gemm_scratch_allocations();
  for (int i = 0; i < 50; ++i) call_both();
  EXPECT_EQ(gemm_scratch_allocations(), warm)
      << "NT/TN steady-state calls must reuse the packing arenas";

  // Repacking the same-geometry panel must also be allocation-free.
  GemmAPack pack;
  pack.pack(m, k, 1.0f, StridedOperand{a.data(), k, 1});
  const std::uint64_t after_pack = gemm_scratch_allocations();
  for (int i = 0; i < 20; ++i)
    pack.pack(m, k, 1.0f, StridedOperand{a.data(), k, 1});
  EXPECT_EQ(gemm_scratch_allocations(), after_pack);
}

// ---------------------------------------------------------------------------
// Regression: flops telemetry must count only multiplies actually issued
// ---------------------------------------------------------------------------

TEST(GemmKernel, FlopsCountedOnlyForIssuedMultiplies) {
  telemetry::set_enabled(true);
  telemetry::Counter& flops =
      telemetry::Registry::instance().counter("tensor.gemm.flops");
  Rng rng(19);
  const Tensor a = random_matrix(6, 5, rng);
  const Tensor b = random_matrix(5, 4, rng);
  Tensor c(Shape{6, 4});

  const std::uint64_t before = flops.value();
  // Degenerate calls: alpha == 0, k == 0, empty C — no multiplies, no flops
  // (the old kernel recorded 2*m*n*k before its early return, inflating
  // GFLOP/s in telemetry and in the bench records).
  gemm(false, false, 6, 4, 5, 0.0f, a.data(), 5, b.data(), 4, 0.5f, c.data(),
       4);
  gemm(false, false, 6, 4, 0, 1.0f, a.data(), 5, b.data(), 4, 1.0f, c.data(),
       4);
  gemm(false, false, 0, 4, 5, 1.0f, a.data(), 5, b.data(), 4, 0.0f, c.data(),
       4);
  gemm(false, false, 6, 0, 5, 1.0f, a.data(), 5, b.data(), 4, 0.0f, c.data(),
       4);
  EXPECT_EQ(flops.value(), before);

  gemm(false, false, 6, 4, 5, 1.0f, a.data(), 5, b.data(), 4, 0.0f, c.data(),
       4);
  EXPECT_EQ(flops.value(), before + 2ull * 6 * 4 * 5);
  telemetry::set_enabled(false);
}

// ---------------------------------------------------------------------------
// A short training under every kernel pairing
// ---------------------------------------------------------------------------

/// Every field of every epoch record, as raw bytes.
std::vector<unsigned char> history_bytes(const TrainResult& r) {
  std::vector<unsigned char> bytes;
  const auto put = [&bytes](const auto& v) {
    const auto* p = reinterpret_cast<const unsigned char*>(&v);
    bytes.insert(bytes.end(), p, p + sizeof(v));
  };
  for (const EpochRecord& e : r.history) {
    put(e.epoch);
    put(e.train_loss);
    put(e.train_accuracy);
    put(e.test_accuracy);
    put(e.remaps);
    put(e.mean_density_est);
    put(e.max_density_est);
    put(e.total_faults);
    put(e.new_faults);
    put(e.bist_cycles);
    put(e.new_upsets);
    put(e.live_upsets);
    put(e.refreshed_cells);
    put(e.refresh_cycles);
  }
  put(r.final_test_accuracy);
  return bytes;
}

TEST(GemmKernel, TrainingIdenticalUnderEveryKernel) {
  // resnet12, 2 epochs on 48/32 samples: once on fp32 cells with SAF
  // faults and Remap-D, once on 4-bit cells through the int8 path with
  // upsets and refresh. Each runs under every fp32 x int8 kernel pairing
  // this CPU supports and must train to the same bytes.
  struct Restore {
    std::string fp32 = gemm_kernel_name(), i8 = int8_kernel_name();
    ~Restore() {
      gemm_testing::force_kernel(fp32);
      int8_testing::force_kernel(i8);
    }
  } restore;
  const auto train = [](bool int8) {
    TrainerConfig cfg = recommended_config("resnet12");
    cfg.epochs = 2;
    cfg.data.train = 48;
    cfg.data.test = 32;
    cfg.policy = int8 ? "refresh" : "remap-d";
    cfg.faults = FaultScenario::paper_default_compressed(cfg.epochs);
    if (int8) {
      cfg.quant.enabled = true;
      cfg.quant.cell_bits = 4;
      cfg.quant.int8_gemm = true;
    }
    apply_fault_model(cfg, int8 ? "saf+transient" : "saf");
    return history_bytes(train_with_faults(cfg));
  };
  std::vector<unsigned char> first[2];
  for (const std::string& fp32 : gemm_testing::supported_kernels())
    for (const std::string& i8 : int8_testing::supported_kernels()) {
      SCOPED_TRACE("fp32 " + fp32 + ", int8 " + i8);
      gemm_testing::force_kernel(fp32);
      int8_testing::force_kernel(i8);
      for (const bool int8 : {false, true}) {
        const std::vector<unsigned char> bytes = train(int8);
        ASSERT_FALSE(bytes.empty());
        if (first[int8].empty())
          first[int8] = bytes;
        else
          EXPECT_EQ(bytes, first[int8]) << (int8 ? "int8 run" : "fp32 run");
      }
    }
}

// ---------------------------------------------------------------------------
// aligned_grain helper (util/parallel)
// ---------------------------------------------------------------------------

TEST(GemmKernel, AlignedGrainRoundsUpToTileMultiples) {
  EXPECT_EQ(aligned_grain(48, 6), 48u);
  EXPECT_EQ(aligned_grain(47, 6), 48u);
  EXPECT_EQ(aligned_grain(1, 6), 6u);
  EXPECT_EQ(aligned_grain(0, 6), 6u);
  EXPECT_EQ(aligned_grain(13, 0), 13u);  // tile 0 behaves as 1
  EXPECT_EQ(aligned_grain(0, 0), 1u);
}

}  // namespace
}  // namespace remapd
