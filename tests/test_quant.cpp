// Quantized conductance subsystem (DESIGN.md §15): level codec geometry,
// stochastic-rounding programmer determinism and unbiasedness, the int8
// GEMM fast path's exactness contract, stuck-level SAF semantics, the
// level-coded checkpoint sections, and the headline guarantees — quantized
// training resumes bitwise at any thread count, and a quantized fleet job
// live-migrates without perturbing a single bit of its history.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "fleet/chip.hpp"
#include "fleet/scheduler.hpp"
#include "nn/fault_view.hpp"
#include "nn/linear.hpp"
#include "quant/programmer.hpp"
#include "quant/quant.hpp"
#include "telemetry/telemetry.hpp"
#include "tensor/gemm_int8.hpp"
#include "tensor/gemm_int8_testing.hpp"
#include "tensor/im2col.hpp"
#include "trainer/fault_aware_trainer.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "xbar/crossbar.hpp"

namespace remapd {
namespace {

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "remapd_" + name;
}

bool file_exists(const std::string& path) {
  return std::ifstream(path).good();
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << path;
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

class ThreadGuard {
 public:
  explicit ThreadGuard(std::size_t n) : old_(parallel_threads()) {
    set_parallel_threads(n);
  }
  ~ThreadGuard() { set_parallel_threads(old_); }

 private:
  std::size_t old_;
};

// ----------------------------------------------------------- QuantSpec

TEST(QuantSpec, ValidateRejectsBadFields) {
  QuantSpec s;
  s.enabled = true;
  s.cell_bits = 0;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s.cell_bits = 5;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s.cell_bits = 4;
  s.program_noise_sigma = -0.1;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s.program_noise_sigma = 0.25;
  EXPECT_NO_THROW(s.validate());
}

TEST(QuantSpec, LevelsFollowBitsAndEnable) {
  QuantSpec s;
  EXPECT_EQ(s.levels(), 0u);  // disabled = continuous
  s.enabled = true;
  for (std::size_t bits = 1; bits <= 4; ++bits) {
    s.cell_bits = bits;
    EXPECT_EQ(s.levels(), std::size_t{1} << bits);
  }
}

// ----------------------------------------------------------- level codec

TEST(QuantCodec, EndpointsDecodeToExactFullScale) {
  for (std::size_t bits = 1; bits <= 4; ++bits) {
    const std::size_t L = std::size_t{1} << bits;
    const float w_max = 0.37f;
    // Codes 0 and L-1 ARE the full-scale clamps: a stuck-at cell in
    // single-array mapping pins exactly these decoded values.
    EXPECT_EQ(quant::level_decode(0, L, w_max), -w_max) << bits;
    EXPECT_EQ(quant::level_decode(static_cast<std::uint8_t>(L - 1), L, w_max),
              w_max)
        << bits;
  }
}

TEST(QuantCodec, NearestEncodeRoundTripsEveryCode) {
  for (std::size_t bits = 1; bits <= 4; ++bits) {
    const std::size_t L = std::size_t{1} << bits;
    const float w_max = 1.3f;
    for (std::size_t c = 0; c < L; ++c) {
      const float w = quant::level_decode(static_cast<std::uint8_t>(c), L,
                                          w_max);
      EXPECT_EQ(quant::level_encode_nearest(w, L, w_max), c)
          << "bits=" << bits << " code=" << c;
    }
    // Out-of-range weights clamp onto the grid.
    EXPECT_EQ(quant::level_encode_nearest(10.0f * w_max, L, w_max), L - 1);
    EXPECT_EQ(quant::level_encode_nearest(-10.0f * w_max, L, w_max), 0u);
  }
}

TEST(QuantCodec, LevelToIntMatchesDecodeScale) {
  // w = level_to_int(code) * (w_max / (L-1)): the representation the int8
  // fast path uses for on-grid weights. The two evaluation orders differ
  // by rounding only — a few ULPs, never a level.
  for (std::size_t bits = 2; bits <= 4; ++bits) {
    const std::size_t L = std::size_t{1} << bits;
    const float w_max = 0.8f;
    const float scale = w_max / static_cast<float>(L - 1);
    for (std::size_t c = 0; c < L; ++c) {
      const int q = quant::level_to_int(static_cast<std::uint8_t>(c), L);
      EXPECT_LE(std::abs(q), static_cast<int>(L - 1));
      EXPECT_NEAR(static_cast<float>(q) * scale,
                  quant::level_decode(static_cast<std::uint8_t>(c), L, w_max),
                  1e-6f);
      // Re-encoding the scaled integer form lands on the same code.
      EXPECT_EQ(quant::level_encode_nearest(static_cast<float>(q) * scale, L,
                                            w_max),
                c);
    }
  }
}

TEST(QuantCodec, UpsetIsAnMsbFlipInvolution) {
  for (std::size_t bits = 1; bits <= 4; ++bits) {
    const std::size_t L = std::size_t{1} << bits;
    for (std::size_t c = 0; c < L; ++c) {
      const std::uint8_t u =
          quant::upset_level(static_cast<std::uint8_t>(c), L);
      EXPECT_EQ(u, c ^ (L >> 1));
      EXPECT_EQ(quant::upset_level(u, L), c);  // flipping twice restores
    }
  }
}

// ------------------------------------------ cell stuck-resistance guard

TEST(CellParams, StuckResistanceRejectsNonFault) {
  // Regression: kNone used to silently alias the HRS resistance, hiding
  // caller bugs where a healthy cell was treated as stuck.
  CellParams p;
  Rng rng(1);
  EXPECT_THROW(static_cast<void>(p.sample_stuck_resistance(CellFault::kNone,
                                                           rng)),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(p.nominal_stuck_resistance(CellFault::kNone)),
               std::invalid_argument);
  EXPECT_NO_THROW(
      static_cast<void>(p.sample_stuck_resistance(CellFault::kStuckAt0, rng)));
  EXPECT_NO_THROW(
      static_cast<void>(p.nominal_stuck_resistance(CellFault::kStuckAt1)));
}

// ---------------------------------------------- stochastic programmer

QuantSpec spec_of(std::size_t bits, double sigma = 0.0) {
  QuantSpec s;
  s.enabled = true;
  s.cell_bits = bits;
  s.program_noise_sigma = sigma;
  return s;
}

TEST(Programmer, SameStreamReproducesExactly) {
  const StochasticProgrammer prog(spec_of(2), 99);
  std::vector<float> w1(64), w2(64);
  for (std::size_t i = 0; i < w1.size(); ++i)
    w1[i] = w2[i] = 0.01f * static_cast<float>(i) - 0.3f;
  prog.program_span(5, w1.data(), w1.size(), 1.0f);
  prog.program_span(5, w2.data(), w2.size(), 1.0f);
  EXPECT_EQ(std::memcmp(w1.data(), w2.data(), w1.size() * sizeof(float)), 0);
}

TEST(Programmer, StreamsAreKeyedByRoundAndXbar) {
  StochasticProgrammer prog(spec_of(2), 99);
  std::vector<float> base(64), other_xbar(64), other_round(64);
  for (std::size_t i = 0; i < base.size(); ++i)
    base[i] = other_xbar[i] = other_round[i] =
        0.01f * static_cast<float>(i) - 0.3f;
  prog.program_span(5, base.data(), base.size(), 1.0f);
  prog.program_span(6, other_xbar.data(), other_xbar.size(), 1.0f);
  EXPECT_NE(std::memcmp(base.data(), other_xbar.data(),
                        base.size() * sizeof(float)),
            0);
  prog.advance_round();
  prog.program_span(5, other_round.data(), other_round.size(), 1.0f);
  EXPECT_NE(std::memcmp(base.data(), other_round.data(),
                        base.size() * sizeof(float)),
            0);
}

TEST(Programmer, OnGridWeightsAreFixedPoints) {
  // Noise-free stochastic rounding of a weight already on the grid must
  // reproduce it exactly — the property that makes the mapper's code
  // commits idempotent across checkpoint resume.
  const std::size_t L = 8;
  const float w_max = 0.5f;
  const StochasticProgrammer prog(spec_of(3), 7);
  std::vector<float> w(L);
  for (std::size_t c = 0; c < L; ++c)
    w[c] = quant::level_decode(static_cast<std::uint8_t>(c), L, w_max);
  const std::vector<float> before = w;
  prog.program_span(0, w.data(), w.size(), w_max);
  EXPECT_EQ(std::memcmp(w.data(), before.data(), w.size() * sizeof(float)),
            0);
}

TEST(Programmer, StochasticRoundingIsUnbiased) {
  // E[programmed] = requested: the property that lets 3-4-bit cells track
  // fp32 SGD. Mean over many rounds of the same mid-grid weight.
  const float target = 0.2f;
  const float w_max = 1.0f;
  StochasticProgrammer prog(spec_of(2), 1234);  // step = 2/3: coarse grid
  double sum = 0.0;
  const int rounds = 4000;
  for (int r = 0; r < rounds; ++r) {
    float w = target;
    prog.program_span(0, &w, 1, w_max);
    // Programmed value lies on one of the two neighbouring levels.
    EXPECT_TRUE(std::fabs(w - 1.0f / 3.0f) < 1e-6f ||
                std::fabs(w + 1.0f / 3.0f) < 1e-6f)
        << w;
    sum += w;
    prog.advance_round();
  }
  EXPECT_NEAR(sum / rounds, target, 0.02);
}

TEST(Programmer, IndexedMatchesSpanOnSameStream) {
  // program_indexed(idx = identity) must consume the stream exactly like
  // program_span — the two entry points may not diverge.
  const StochasticProgrammer prog(spec_of(2), 4321);
  std::vector<float> a(32), b(32);
  std::vector<std::uint32_t> idx(32);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = b[i] = 0.05f * static_cast<float>(i) - 0.7f;
    idx[i] = static_cast<std::uint32_t>(i);
  }
  prog.program_span(3, a.data(), a.size(), 1.0f);
  prog.program_indexed(3, b.data(), idx.data(), idx.size(), 1.0f);
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
}

TEST(Programmer, SnapshotRoundTripsSeedAndRound) {
  StochasticProgrammer prog(spec_of(3), 77);
  prog.advance_round();
  prog.advance_round();
  ckpt::ByteWriter w;
  prog.save_state(w);
  StochasticProgrammer restored(spec_of(3), 0);
  ckpt::ByteReader r(w.bytes().data(), w.size());
  restored.load_state(r);
  EXPECT_EQ(restored.rounds(), 2u);
  // Same future stream: programming after restore matches the original.
  std::vector<float> x(16), y(16);
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = y[i] = 0.03f * static_cast<float>(i) - 0.2f;
  prog.program_span(1, x.data(), x.size(), 1.0f);
  restored.program_span(1, y.data(), y.size(), 1.0f);
  EXPECT_EQ(std::memcmp(x.data(), y.data(), x.size() * sizeof(float)), 0);
}

// ----------------------------------------------------- int8 GEMM path

int ref_quant(float x, float inv, int qmax) {
  const float t = x * inv;
  if (t != t) return 0;
  if (t > static_cast<float>(qmax)) return qmax;
  if (t < -static_cast<float>(qmax)) return -qmax;
  return static_cast<int>(t + (t >= 0.0f ? 0.5f : -0.5f));
}

/// Runs `body` once under every int8 kernel variant this CPU runs (the
/// portable one always), then restores the dispatched variant.
template <class Body>
void for_each_int8_kernel(Body&& body) {
  struct Restore {
    std::string name = int8_kernel_name();
    ~Restore() { int8_testing::force_kernel(name); }
  } restore;
  const std::vector<std::string> kernels = int8_testing::supported_kernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_EQ(kernels.front(), "portable");
  EXPECT_EQ(kernels.back(), restore.name) << "dispatch picks the best";
  for (const std::string& name : kernels) {
    SCOPED_TRACE("int8 kernel " + name);
    int8_testing::force_kernel(name);
    ASSERT_EQ(std::string(int8_kernel_name()), name);
    body();
  }
}

TEST(Int8Gemm, KernelOverrideRejectsUnknownVariants) {
  EXPECT_THROW(int8_testing::force_kernel("avx9000"), std::invalid_argument);
}

TEST(Int8Gemm, MatchesIntegerReferenceBitwise) {
  ThreadGuard guard(1);
  for_each_int8_kernel([] {
    for (const auto& [m, k, n] : {std::tuple<std::size_t, std::size_t,
                                            std::size_t>{5, 7, 9},
                                 {64, 64, 64},
                                 {17, 33, 16}}) {
      Rng rng(m * 100 + k * 10 + n);
      std::vector<float> a(m * k), b(k * n), c(m * n, -1.0f);
      for (float& v : a) v = static_cast<float>(rng.uniform() * 2.0 - 1.0);
      for (float& v : b) v = static_cast<float>(rng.uniform() * 2.0 - 1.0);
      const float a_scale = 1.0f / 15.0f;

      Int8APack pack;
      pack.pack(m, k, StridedOperand{a.data(), k, 1}, a_scale);
      ASSERT_TRUE(pack.multiply(n, StridedOperand{b.data(), n, 1}, c.data(),
                                n));

      // Reference: same quantization rules, exact int32 accumulation.
      float maxabs = 0.0f;
      for (const float v : b) maxabs = std::max(maxabs, std::fabs(v));
      const float binv = maxabs > 0.0f ? 127.0f / maxabs : 0.0f;
      const float b_scale = maxabs > 0.0f ? maxabs / 127.0f : 0.0f;
      const float scale = a_scale * b_scale;
      const float ainv = 1.0f / a_scale;
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          std::int32_t acc = 0;
          for (std::size_t kk = 0; kk < k; ++kk)
            acc += ref_quant(a[i * k + kk], ainv, kInt8AMax) *
                   ref_quant(b[kk * n + j], binv, 127);
          const float expect = static_cast<float>(acc) * scale;
          ASSERT_EQ(c[i * n + j], expect)
              << m << "x" << k << "x" << n << " at (" << i << "," << j << ")";
        }
      }
    }
  });
}

TEST(Int8Gemm, ThreadCountDoesNotChangeOneBit) {
  const std::size_t m = 96, k = 80, n = 64;
  Rng rng(3);
  std::vector<float> a(m * k), b(k * n);
  for (float& v : a) v = static_cast<float>(rng.uniform() * 2.0 - 1.0);
  for (float& v : b) v = static_cast<float>(rng.uniform() * 2.0 - 1.0);
  std::vector<float> c1(m * n), c4(m * n);
  {
    ThreadGuard guard(1);
    Int8APack p;
    p.pack(m, k, StridedOperand{a.data(), k, 1}, 0.05f);
    ASSERT_TRUE(p.multiply(n, StridedOperand{b.data(), n, 1}, c1.data(), n));
  }
  {
    ThreadGuard guard(4);
    Int8APack p;
    p.pack(m, k, StridedOperand{a.data(), k, 1}, 0.05f);
    ASSERT_TRUE(p.multiply(n, StridedOperand{b.data(), n, 1}, c4.data(), n));
  }
  EXPECT_EQ(std::memcmp(c1.data(), c4.data(), c1.size() * sizeof(float)), 0);
}

TEST(Int8Gemm, StridedOperandsMatchContiguousBitwise) {
  // The AVX2 packers only run on contiguous operands; strided views of the
  // same logical matrices take the scalar path and must produce identical
  // bytes — the mixed-path determinism contract — under every kernel.
  ThreadGuard guard(1);
  const std::size_t m = 37, k = 45, n = 19;
  Rng rng(11);
  std::vector<float> a(m * k), b(k * n);
  for (float& v : a) v = static_cast<float>(rng.uniform() * 2.0 - 1.0);
  for (float& v : b) v = static_cast<float>(rng.uniform() * 2.0 - 1.0);
  std::vector<float> at(k * m), bt(n * k);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t kk = 0; kk < k; ++kk) at[kk * m + i] = a[i * k + kk];
  for (std::size_t kk = 0; kk < k; ++kk)
    for (std::size_t j = 0; j < n; ++j) bt[j * k + kk] = b[kk * n + j];

  std::vector<float> first;
  for_each_int8_kernel([&] {
    Int8APack pc, ps;
    pc.pack(m, k, StridedOperand{a.data(), k, 1}, 0.1f);
    ps.pack(m, k, StridedOperand{at.data(), 1, m}, 0.1f);
    std::vector<float> c1(m * n), c2(m * n), c3(m * n);
    ASSERT_TRUE(pc.multiply(n, StridedOperand{b.data(), n, 1}, c1.data(), n));
    ASSERT_TRUE(pc.multiply(n, StridedOperand{bt.data(), 1, k}, c2.data(), n));
    ASSERT_TRUE(ps.multiply(n, StridedOperand{b.data(), n, 1}, c3.data(), n));
    EXPECT_EQ(std::memcmp(c1.data(), c2.data(), c1.size() * sizeof(float)),
              0);
    EXPECT_EQ(std::memcmp(c1.data(), c3.data(), c1.size() * sizeof(float)),
              0);
    if (first.empty()) first = c1;
    EXPECT_EQ(std::memcmp(c1.data(), first.data(), c1.size() * sizeof(float)),
              0)
        << "every kernel variant gives the same bytes";
  });
}

TEST(Int8Gemm, SegmentScalesMatchPerSegmentCalls) {
  // One multiply with a scale per column segment must equal one multiply
  // per segment, bit for bit: segments spanning whole strips, several per
  // strip (4-wide, as a 2x2-output conv sample) and straddling strips (9),
  // magnitudes 1e-3..1e3 and an all-zero segment, a ragged last segment,
  // contiguous and strided operands, 1 and 4 threads, every kernel.
  const std::size_t m = 13, k = 37;
  const float mags[] = {1e-3f, 1e-2f, 1e-1f, 0.0f, 1.0f, 1e1f, 1e2f, 1e3f};
  const std::size_t segments = std::size(mags);
  Rng rng(5);
  std::vector<float> a(m * k);
  for (float& v : a) v = static_cast<float>(rng.uniform() * 2.0 - 1.0);
  for (const std::size_t width : {std::size_t{4}, std::size_t{9},
                                  std::size_t{16}, std::size_t{64}}) {
    SCOPED_TRACE("segment width " + std::to_string(width));
    const std::size_t n = segments * width - 1;  // ragged last segment
    std::vector<float> b(k * n), bt(n * k);
    for (std::size_t kk = 0; kk < k; ++kk)
      for (std::size_t j = 0; j < n; ++j) {
        b[kk * n + j] = mags[j / width] *
                        static_cast<float>(rng.uniform() * 2.0 - 1.0);
        bt[j * k + kk] = b[kk * n + j];
      }
    std::vector<float> first;
    for_each_int8_kernel([&] {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        ThreadGuard guard(threads);
        Int8APack p;
        p.pack(m, k, StridedOperand{a.data(), k, 1}, 1.0f / 15.0f);
        std::vector<float> want(m * n), got(m * n), got_t(m * n);
        for (std::size_t j0 = 0; j0 < n; j0 += width)
          ASSERT_TRUE(p.multiply(std::min(width, n - j0),
                                 StridedOperand{b.data() + j0, n, 1},
                                 want.data() + j0, n));
        ASSERT_TRUE(p.multiply(n, StridedOperand{b.data(), n, 1}, got.data(),
                               n, width));
        ASSERT_TRUE(p.multiply(n, StridedOperand{bt.data(), 1, k},
                               got_t.data(), n, width));
        const std::size_t bytes = want.size() * sizeof(float);
        EXPECT_EQ(std::memcmp(got.data(), want.data(), bytes), 0) << threads;
        EXPECT_EQ(std::memcmp(got_t.data(), want.data(), bytes), 0)
            << threads;
        if (first.empty()) first = want;
        EXPECT_EQ(std::memcmp(want.data(), first.data(), bytes), 0);

        // A NaN or inf in one segment refuses the whole product and leaves
        // C as it was.
        for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                                std::numeric_limits<float>::infinity()}) {
          std::vector<float> poisoned = b;
          poisoned[(k / 2) * n + 5 * width + 1] = bad;
          std::vector<float> c(m * n, -7.0f);
          EXPECT_FALSE(p.multiply(n, StridedOperand{poisoned.data(), n, 1},
                                  c.data(), n, width));
          EXPECT_TRUE(std::all_of(c.begin(), c.end(),
                                  [](float v) { return v == -7.0f; }));
        }
      }
    });
  }
}

TEST(Int8Gemm, ConvOperandMatchesPerSampleIm2colBitwise) {
  // The implicit int8 conv operand (quantize each padded image once,
  // gather bytes through the offsets) against one multiply per sample
  // over its materialized im2col panel. Samples differ in magnitude, so
  // their scales differ; strips span several samples where OH*OW < 16. On
  // a 1x1 stride-2 layer some pixels are never read: a huge or NaN value
  // there must not touch the scale, while a NaN that is read refuses the
  // block and leaves C untouched.
  const std::size_t samples = 5, out = 6;
  for (const ConvGeom& g : {ConvGeom{3, 8, 8, 3, 3, 1, 1},
                            ConvGeom{4, 8, 8, 3, 3, 2, 1},
                            ConvGeom{4, 8, 8, 1, 1, 2, 0},
                            ConvGeom{3, 5, 9, 3, 3, 1, 1},
                            ConvGeom{2, 2, 2, 3, 3, 1, 1},
                            ConvGeom{3, 16, 16, 3, 3, 1, 1},
                            ConvGeom{2, 7, 7, 5, 5, 1, 2}}) {
    SCOPED_TRACE(std::to_string(g.height) + "x" + std::to_string(g.width) +
                 " k=" + std::to_string(g.kernel_h) +
                 " s=" + std::to_string(g.stride));
    const std::size_t cr = g.col_rows(), cc = g.col_cols();
    const std::size_t plane = g.channels * g.height * g.width;
    const std::size_t psz = g.padded_size(), n = samples * cc;
    Rng rng(cr * 7 + cc);
    std::vector<float> w(out * cr), x(samples * plane);
    for (float& v : w)  // on the 16-level grid
      v = static_cast<float>(static_cast<int>(rng.uniform() * 15) - 7) / 15;
    for (std::size_t i = 0; i < samples; ++i)
      for (std::size_t e = 0; e < plane; ++e)
        x[i * plane + e] = static_cast<float>(std::pow(10.0, int(i) - 2) *
                                              (rng.uniform() * 2.0 - 1.0));
    if (!g.reads_every_pixel()) {  // (1, 1) is never read at stride 2
      x[1 * plane + g.width + 1] = 1e30f;
      x[3 * plane + g.width + 1] = std::numeric_limits<float>::quiet_NaN();
    }
    ConvOffsets o;
    o.build(g);
    std::vector<std::uint8_t> bytes(samples * psz);
    std::vector<float> first;
    for_each_int8_kernel([&] {
      Int8APack p;
      p.pack(out, cr, StridedOperand{w.data(), cr, 1}, 1.0f / 15.0f);
      std::vector<float> col(cr * cc), want(out * n), got(out * n, -7.0f);
      for (std::size_t i = 0; i < samples; ++i) {
        im2col(x.data() + i * plane, g, col.data());
        ASSERT_TRUE(p.multiply(cc, StridedOperand{col.data(), cc, 1},
                               want.data() + i * cc, n));
      }
      std::vector<float> padded(samples * psz);
      for (std::size_t i = 0; i < samples; ++i)
        pad_image(x.data() + i * plane, g, padded.data() + i * psz);
      const Int8ConvOperand op{
          ConvOperand{padded.data(), psz, o.row_off.data(), o.col_off.data(),
                      cc},
          g.reads_every_pixel(), bytes.data()};
      ASSERT_TRUE(p.multiply(n, op, got.data(), n));
      const std::size_t nbytes = want.size() * sizeof(float);
      EXPECT_EQ(std::memcmp(got.data(), want.data(), nbytes), 0);
      if (first.empty()) first = got;
      EXPECT_EQ(std::memcmp(got.data(), first.data(), nbytes), 0);

      padded[2 * psz + static_cast<std::size_t>(o.row_off[cr - 1] +
                                                o.col_off[cc - 1])] =
          std::numeric_limits<float>::quiet_NaN();
      std::fill(got.begin(), got.end(), -7.0f);
      EXPECT_FALSE(p.multiply(n, op, got.data(), n));
      EXPECT_TRUE(std::all_of(got.begin(), got.end(),
                              [](float v) { return v == -7.0f; }));
    });
  }
}

TEST(Int8Gemm, NonFiniteActivationsForceFp32Fallback) {
  ThreadGuard guard(1);
  std::vector<float> a(8 * 8, 0.5f), b(8 * 8, 0.25f), c(8 * 8);
  Int8APack p;
  p.pack(8, 8, StridedOperand{a.data(), 8, 1}, 0.1f);
  // NaN mid-matrix (not last: the scan must be NaN-sticky, not
  // last-element-lucky) and inf both refuse the int8 path.
  b[13] = std::nanf("");
  EXPECT_FALSE(p.multiply(8, StridedOperand{b.data(), 8, 1}, c.data(), 8));
  b[13] = std::numeric_limits<float>::infinity();
  EXPECT_FALSE(p.multiply(8, StridedOperand{b.data(), 8, 1}, c.data(), 8));
  b[13] = 0.25f;
  EXPECT_TRUE(p.multiply(8, StridedOperand{b.data(), 8, 1}, c.data(), 8));
}

TEST(Int8Gemm, LinearFallbacksAreCounted) {
  // The int8 -> fp32 fallback is observable: finite batches leave the
  // counter flat, a non-finite batch adds one per refused MVM.
  ThreadGuard guard(1);
  Rng rng(41);
  Linear fc(6, 4, rng);
  FaultView view;
  view.levels = 16;
  view.int8_path = true;
  fc.set_fault_views(view, view);
  telemetry::set_enabled(true);
  auto& reg = telemetry::Registry::instance();
  Tensor x = Tensor::randn(Shape{3, 6}, rng);
  fc.forward(x, /*train=*/true);
  telemetry::Counter& fallbacks = reg.counter("nn.linear.int8_fallbacks");
  const std::uint64_t before = fallbacks.value();
  fc.backward(Tensor::randn(Shape{3, 4}, rng));
  EXPECT_EQ(fallbacks.value(), before);
  x[7] = std::nanf("");
  fc.forward(x, /*train=*/true);
  EXPECT_EQ(fallbacks.value(), before + 1);
  telemetry::set_enabled(false);
}

TEST(Int8Gemm, MultiplyIsTimed) {
  // Every int8 multiply, accepted or refused, counts one call and one
  // latency sample while telemetry is on, and nothing while it is off.
  ThreadGuard guard(1);
  std::vector<float> a(6 * 8, 0.5f), b(8 * 5, 0.25f), c(6 * 5);
  Int8APack p;
  p.pack(6, 8, StridedOperand{a.data(), 8, 1}, 0.1f);
  auto& reg = telemetry::Registry::instance();
  telemetry::Counter& calls = reg.counter("tensor.gemm_int8.calls");
  telemetry::Histogram& ns = reg.histogram("tensor.gemm_int8.ns");

  telemetry::set_enabled(true);
  const std::uint64_t before = calls.value(), before_ns = ns.count();
  for (int i = 0; i < 3; ++i)
    ASSERT_TRUE(p.multiply(5, StridedOperand{b.data(), 5, 1}, c.data(), 5));
  b[2] = std::nanf("");
  EXPECT_FALSE(p.multiply(5, StridedOperand{b.data(), 5, 1}, c.data(), 5));
  EXPECT_EQ(calls.value(), before + 4);
  EXPECT_EQ(ns.count(), before_ns + 4);

  telemetry::set_enabled(false);
  b[2] = 0.25f;
  ASSERT_TRUE(p.multiply(5, StridedOperand{b.data(), 5, 1}, c.data(), 5));
  EXPECT_EQ(calls.value(), before + 4);
  EXPECT_EQ(ns.count(), before_ns + 4);
}

// ------------------------------------------------- fault-view semantics

TEST(FaultViewQuant, StuckCellIsAStuckLevel) {
  // Single-array full-scale clamps and level-grid endpoints coincide
  // exactly, so SAF handling needs no special-casing in quantized mode.
  FaultView v;
  v.w_max = 0.75f;
  v.levels = 16;
  EXPECT_EQ(v.clamp_value(0.2f, WeightClampKind::kPosStuck1), v.w_max);
  EXPECT_EQ(v.clamp_value(0.2f, WeightClampKind::kPosStuck0), -v.w_max);
  EXPECT_EQ(v.clamp_value(0.2f, WeightClampKind::kPosStuck1),
            quant::level_decode(15, 16, v.w_max));
  EXPECT_EQ(v.clamp_value(0.2f, WeightClampKind::kPosStuck0),
            quant::level_decode(0, 16, v.w_max));
}

TEST(FaultViewQuant, LevelClampPinsDecodedValueThroughApply) {
  FaultView v;
  v.w_max = 1.0f;
  v.levels = 8;
  const std::uint8_t code = 5;
  const std::uint8_t flipped = quant::upset_level(code, 8);
  v.clamps.push_back(WeightClamp{2, WeightClampKind::kLevel,
                                 quant::level_decode(flipped, 8, v.w_max)});
  float w[4] = {0.1f, 0.2f, quant::level_decode(code, 8, 1.0f), 0.4f};
  float out[4];
  v.apply(w, out, 4);
  EXPECT_EQ(out[0], w[0]);
  EXPECT_EQ(out[2], quant::level_decode(flipped, 8, 1.0f));
}

TEST(FaultViewQuant, Int8SelectionNeedsLevelsAndOptIn) {
  FaultView v;
  EXPECT_FALSE(v.int8_selected());  // continuous
  v.levels = 16;
  EXPECT_FALSE(v.int8_selected());  // no opt-in
  v.int8_path = true;
  EXPECT_TRUE(v.int8_selected());
  v.w_max = 0.6f;
  EXPECT_FLOAT_EQ(v.int8_weight_scale(), 0.6f / 15.0f);
}

// --------------------------------------------- level-coded checkpoints

CellParams quant_cell(std::size_t bits) {
  CellParams p;
  p.quant = spec_of(bits);
  return p;
}

TEST(QuantCheckpoint, CodedCrossbarRoundTripsAndRejectsEveryFlip) {
  Crossbar xb(6, 10, quant_cell(3));
  ASSERT_TRUE(xb.has_codes());
  Rng rng(5);
  for (std::size_t r = 0; r < 6; ++r)
    for (std::size_t c = 0; c < 10; ++c)
      xb.set_code(r, c, static_cast<std::uint8_t>(rng.uniform() * 8));
  xb.inject_random_faults(4, 0.5, rng);

  ckpt::CheckpointWriter w;
  xb.save_state(w.section("xb"));
  const std::string good = w.serialize();

  // Round trip restores every code.
  {
    const auto reader = ckpt::CheckpointReader::from_bytes(good);
    ckpt::ByteReader br = reader.open("xb");
    Crossbar back(6, 10, quant_cell(3));
    back.load_state(br);
    for (std::size_t r = 0; r < 6; ++r)
      for (std::size_t c = 0; c < 10; ++c)
        ASSERT_EQ(back.code_at(r, c), xb.code_at(r, c));
    EXPECT_EQ(back.fault_count(), xb.fault_count());
  }

  // The packed-nibble payload is CRC-covered like everything else: a flip
  // at any byte offset must be rejected.
  for (std::size_t pos = 0; pos < good.size(); ++pos) {
    std::string bad = good;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x40);
    EXPECT_THROW(ckpt::CheckpointReader::from_bytes(bad),
                 ckpt::CheckpointError)
        << "flip at byte " << pos << " was accepted";
  }
}

TEST(QuantCheckpoint, SnapshotSummaryReportsCodes) {
  Crossbar xb(8, 8, quant_cell(4));
  for (std::size_t r = 0; r < 8; ++r)
    for (std::size_t c = 0; c < 8; ++c)
      xb.set_code(r, c, static_cast<std::uint8_t>((r * 8 + c) % 16));
  ckpt::ByteWriter w;
  xb.save_state(w);
  ckpt::ByteReader r(w.bytes().data(), w.size());
  const auto s = Crossbar::summarize_snapshot(r);
  EXPECT_EQ(s.cell_bits, 4u);
  EXPECT_EQ(s.coded_bytes, 32u);       // 64 cells, 2 codes per byte
  EXPECT_EQ(s.fp32_equiv_bytes, 256u); // 8x compression
  ASSERT_EQ(s.code_hist.size(), 16u);
  for (const std::size_t h : s.code_hist) EXPECT_EQ(h, 4u);
}

// ------------------------------------------- quantized trainer resume

TrainerConfig quant_resume_cfg() {
  TrainerConfig cfg;
  cfg.model = "vgg11";
  cfg.epochs = 4;
  cfg.batch_size = 16;
  cfg.data.train = 48;
  cfg.data.test = 32;
  cfg.data.image_size = 12;
  cfg.faults = FaultScenario::paper_default_compressed(cfg.epochs);
  cfg.policy = "remap-d";
  cfg.quant.enabled = true;
  cfg.quant.cell_bits = 3;
  cfg.quant.program_noise_sigma = 0.1;
  cfg.quant.int8_gemm = true;
  return cfg;
}

void expect_bitwise_equal_history(const TrainResult& a,
                                  const TrainResult& b) {
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    const EpochRecord& x = a.history[i];
    const EpochRecord& y = b.history[i];
    EXPECT_EQ(x.train_loss, y.train_loss) << "epoch " << i;
    EXPECT_EQ(x.train_accuracy, y.train_accuracy) << "epoch " << i;
    EXPECT_EQ(x.test_accuracy, y.test_accuracy) << "epoch " << i;
    EXPECT_EQ(x.remaps, y.remaps) << "epoch " << i;
    EXPECT_EQ(x.total_faults, y.total_faults) << "epoch " << i;
  }
  EXPECT_EQ(a.final_test_accuracy, b.final_test_accuracy);
}

/// Stop a quantized run mid-training, resume in a fresh process state, and
/// demand bitwise equality with the uninterrupted run — including the
/// serialized final checkpoints (level codes, programmer round counter,
/// weights, everything).
void run_quant_resume(std::size_t threads) {
  ThreadGuard guard(threads);
  const std::string tag = std::to_string(threads);
  const std::string mid = tmp_path("quant_mid_" + tag + ".ckpt");
  const std::string end_a = tmp_path("quant_full_" + tag + ".ckpt");
  const std::string end_b = tmp_path("quant_resumed_" + tag + ".ckpt");

  TrainResult full;
  {
    FaultAwareTrainer trainer(quant_resume_cfg());
    full = trainer.run();
    trainer.save_checkpoint(end_a);
  }
  {
    TrainerConfig cfg = quant_resume_cfg();
    cfg.checkpoint_path = mid;
    cfg.checkpoint_every = 1;
    cfg.stop_after_epochs = 2;
    FaultAwareTrainer trainer(cfg);
    const TrainResult partial = trainer.run();
    EXPECT_EQ(partial.history.size(), 2u);
  }
  ASSERT_TRUE(file_exists(mid));
  TrainResult resumed;
  {
    TrainerConfig cfg = quant_resume_cfg();
    cfg.resume_from = mid;
    FaultAwareTrainer trainer(cfg);
    resumed = trainer.run();
    trainer.save_checkpoint(end_b);
  }

  expect_bitwise_equal_history(full, resumed);
  EXPECT_EQ(slurp(end_a), slurp(end_b));

  std::remove(mid.c_str());
  std::remove(end_a.c_str());
  std::remove(end_b.c_str());
}

TEST(QuantResume, BitwiseIdenticalSingleThread) { run_quant_resume(1); }

TEST(QuantResume, BitwiseIdenticalFourThreads) { run_quant_resume(4); }

TEST(QuantResume, CellBitsMismatchIsNamed) {
  const std::string path = tmp_path("quant_mismatch.ckpt");
  {
    TrainerConfig cfg = quant_resume_cfg();
    cfg.epochs = 1;
    cfg.faults = FaultScenario::ideal();
    FaultAwareTrainer trainer(cfg);
    trainer.run();
    trainer.save_checkpoint(path);
  }
  // Resuming a 3-bit run with an fp32 (quant-disabled) config must abort
  // naming the offending fingerprint field, not silently dequantize.
  TrainerConfig cfg = quant_resume_cfg();
  cfg.epochs = 1;
  cfg.faults = FaultScenario::ideal();
  cfg.quant = QuantSpec{};
  cfg.resume_from = path;
  try {
    FaultAwareTrainer trainer(cfg);
    FAIL() << "cell-bits mismatch accepted";
  } catch (const ckpt::CheckpointError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("quant.cell_bits"), std::string::npos) << msg;
  }
  std::remove(path.c_str());
}

// --------------------------------------------- quantized fleet migration

/// A quantized job preempted on chip A and resumed on chip B must retrace
/// the unmigrated run bitwise: stochastic-rounding streams are keyed by
/// (seed, round, xbar), none of which migration changes.
void run_quant_migration(std::size_t threads) {
  ThreadGuard guard(threads);
  fleet::JobSpec spec;
  spec.name = "quant-det";
  spec.model = "resnet12";
  spec.policy = "remap-d";
  spec.epochs = 4;
  spec.train = 48;
  spec.test = 32;
  spec.seed = 21;
  spec.cell_bits = 3;
  spec.int8 = true;

  fleet::ChipSpec chip;
  chip.name = "chip";

  TrainResult base;
  {
    fleet::ChipPool pool = fleet::ChipPool::homogeneous(1, chip);
    fleet::Scheduler sched(pool, fleet::SchedulerConfig{});
    sched.submit(spec);
    const fleet::FleetSummary s = sched.run();
    ASSERT_EQ(s.completed, 1u);
    ASSERT_EQ(s.migrations, 0u);
    base = sched.jobs()[0].trainer->result();
  }
  ASSERT_EQ(base.history.size(), spec.epochs);

  fleet::ChipPool pool = fleet::ChipPool::homogeneous(2, chip);
  fleet::SchedulerConfig cfg;
  cfg.force_migrate_at_epoch = 2;
  fleet::Scheduler sched(pool, cfg);
  sched.submit(spec);
  const fleet::FleetSummary s = sched.run();
  ASSERT_EQ(s.completed, 1u);
  ASSERT_EQ(s.migrations, 1u);
  expect_bitwise_equal_history(base, sched.jobs()[0].trainer->result());
}

TEST(QuantFleetMigration, BitwiseDeterministicSerial) {
  run_quant_migration(1);
}

TEST(QuantFleetMigration, BitwiseDeterministicFourThreads) {
  run_quant_migration(4);
}

}  // namespace
}  // namespace remapd
