// Tests for the deterministic work-sharing layer (util/parallel) and for
// the thread-count invariance it promises: the same seed must produce
// bitwise-identical results whether REMAPD_THREADS is 1 or 4. Also holds
// the regression tests for the silent-correctness bugs fixed alongside it
// (NaN suppression in gemm, dropped out-of-range clamps, biased BatchNorm
// window variance, stale MaxPool argmax reuse).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <vector>

#include "bist/controller.hpp"
#include "conv_reference.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/fault_view.hpp"
#include "nn/pooling.hpp"
#include "telemetry/telemetry.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_int8.hpp"
#include "tensor/im2col.hpp"
#include "trainer/fault_aware_trainer.hpp"
#include "trainer/scenarios.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "xbar/fault_model.hpp"
#include "xbar/rcs.hpp"

namespace remapd {
namespace {

/// Scoped thread-count override; restores the previous pool on exit so the
/// global configuration never leaks between tests.
class ThreadGuard {
 public:
  explicit ThreadGuard(std::size_t n) : old_(parallel_threads()) {
    set_parallel_threads(n);
  }
  ~ThreadGuard() { set_parallel_threads(old_); }

 private:
  std::size_t old_;
};

// ---------------------------------------------------------------------------
// parallel_for mechanics
// ---------------------------------------------------------------------------

TEST(Parallel, EveryIndexVisitedExactlyOnce) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadGuard guard(threads);
    for (const std::size_t grain : {std::size_t{1}, std::size_t{3},
                                    std::size_t{7}, std::size_t{100}}) {
      std::vector<std::atomic<int>> visits(53);
      parallel_for(2, 53, grain, [&](std::size_t b0, std::size_t b1) {
        for (std::size_t i = b0; i < b1; ++i)
          visits[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (std::size_t i = 0; i < visits.size(); ++i)
        EXPECT_EQ(visits[i].load(), i >= 2 ? 1 : 0)
            << "threads=" << threads << " grain=" << grain << " i=" << i;
    }
  }
}

TEST(Parallel, BlockStructureIndependentOfThreadCount) {
  // The (block index -> [b0, b1)) map is part of the determinism contract:
  // it may depend on range and grain only.
  const auto collect = [](std::size_t threads) {
    ThreadGuard guard(threads);
    std::map<std::size_t, std::pair<std::size_t, std::size_t>> blocks;
    std::mutex mu;
    parallel_for_blocks(
        5, 47, 4, [&](std::size_t b0, std::size_t b1, std::size_t blk) {
          std::lock_guard<std::mutex> lock(mu);
          EXPECT_TRUE(blocks.emplace(blk, std::make_pair(b0, b1)).second);
        });
    return blocks;
  };
  const auto serial = collect(1);
  const auto parallel = collect(4);
  EXPECT_EQ(serial.size(), num_blocks(5, 47, 4));
  EXPECT_EQ(serial, parallel);
}

TEST(Parallel, EmptyRangeAndZeroGrain) {
  ThreadGuard guard(4);
  bool ran = false;
  parallel_for(10, 10, 4, [&](std::size_t, std::size_t) { ran = true; });
  parallel_for(10, 3, 4, [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
  // grain 0 behaves as grain 1.
  EXPECT_EQ(num_blocks(0, 5, 0), 5u);
  std::atomic<int> count{0};
  parallel_for(0, 5, 0, [&](std::size_t b0, std::size_t b1) {
    count.fetch_add(static_cast<int>(b1 - b0));
  });
  EXPECT_EQ(count.load(), 5);
}

TEST(Parallel, NestedLoopRunsInlineAndCoversRange) {
  ThreadGuard guard(4);
  EXPECT_FALSE(in_parallel_region());
  std::vector<std::atomic<int>> visits(24);
  parallel_for(0, 4, 1, [&](std::size_t o0, std::size_t o1) {
    EXPECT_TRUE(in_parallel_region());
    for (std::size_t o = o0; o < o1; ++o) {
      parallel_for(0, 6, 2, [&](std::size_t i0, std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i)
          visits[o * 6 + i].fetch_add(1, std::memory_order_relaxed);
      });
    }
  });
  EXPECT_FALSE(in_parallel_region());
  for (auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(Parallel, ExceptionPropagatesAndPoolSurvives) {
  ThreadGuard guard(4);
  EXPECT_THROW(
      parallel_for(0, 100, 1,
                   [&](std::size_t b0, std::size_t) {
                     if (b0 == 57) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
  // The pool must still be usable after a failed job.
  std::atomic<int> count{0};
  parallel_for(0, 100, 1, [&](std::size_t b0, std::size_t b1) {
    count.fetch_add(static_cast<int>(b1 - b0));
  });
  EXPECT_EQ(count.load(), 100);
}

TEST(Parallel, BackToBackGrowingJobsRunBlocksExactlyOnce) {
  // Regression: a worker that woke late for an already-finished job could
  // race the next job's cursor reset — its stale exhausted claim passed the
  // block-count check of a *larger* new job, running one block twice (and
  // leaving the caller waiting on an overshot done count). Alternate tiny
  // and large jobs back-to-back so stale wakeups from the tiny job overlap
  // the large job's publish.
  ThreadGuard guard(4);
  for (int round = 0; round < 200; ++round) {
    for (const std::size_t nblocks : {std::size_t{1}, std::size_t{64}}) {
      std::vector<std::atomic<int>> visits(nblocks);
      parallel_for_blocks(0, nblocks, 1,
                          [&](std::size_t, std::size_t, std::size_t blk) {
                            visits[blk].fetch_add(1,
                                                  std::memory_order_relaxed);
                          });
      for (std::size_t i = 0; i < nblocks; ++i)
        ASSERT_EQ(visits[i].load(), 1)
            << "round=" << round << " nblocks=" << nblocks << " blk=" << i;
    }
  }
}

TEST(Parallel, ReconfigureThreadCount) {
  ThreadGuard guard(4);
  EXPECT_EQ(parallel_threads(), 4u);
  set_parallel_threads(2);
  EXPECT_EQ(parallel_threads(), 2u);
  set_parallel_threads(0);  // 0 means serial, same as 1
  EXPECT_EQ(parallel_threads(), 1u);
}

TEST(Parallel, ReductionGrainCapsBlockCount) {
  for (const std::size_t range : {std::size_t{1}, std::size_t{7},
                                  std::size_t{16}, std::size_t{17},
                                  std::size_t{1000}}) {
    const std::size_t g = reduction_grain(range);
    EXPECT_LE(num_blocks(0, range, g), 16u) << "range=" << range;
    EXPECT_GE(g, 1u);
  }
}

// ---------------------------------------------------------------------------
// Bitwise thread-count invariance of the parallelized hot paths
// ---------------------------------------------------------------------------

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

TEST(ParallelDeterminism, GemmBitwise) {
  Rng rng(11);
  const Tensor a = Tensor::randn(Shape{64, 48}, rng);
  const Tensor b = Tensor::randn(Shape{48, 56}, rng);
  Tensor c1, c4;
  {
    ThreadGuard guard(1);
    c1 = matmul(a, b);
  }
  {
    ThreadGuard guard(4);
    c4 = matmul(a, b);
  }
  EXPECT_TRUE(bitwise_equal(c1, c4));
}

TEST(ParallelDeterminism, Conv2dForwardBackwardBitwise) {
  const auto run = [](std::size_t threads) {
    ThreadGuard guard(threads);
    Rng rng(23);
    Conv2d conv(3, 8, 3, 1, 1, rng);
    const Tensor x = Tensor::randn(Shape{6, 3, 10, 10}, rng);
    const Tensor y = conv.forward(x, /*train=*/true);
    Tensor dy = Tensor::randn(y.shape(), rng);
    const Tensor dx = conv.backward(dy);
    std::vector<Tensor> out{y, dx};
    for (Param* p : conv.params()) out.push_back(p->grad);
    return out;
  };
  const auto serial = run(1);
  const auto parallel = run(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_TRUE(bitwise_equal(serial[i], parallel[i])) << "tensor " << i;
}

// ---------------------------------------------------------------------------
// Sample-blocked Conv2d vs a per-sample reference (DESIGN §13)
// ---------------------------------------------------------------------------

struct ConvCase {
  std::size_t in_ch, out_ch, kernel, stride, pad, height, width;
};

struct ConvResult {
  Tensor y, dx, dw, db;
};

/// The per-sample lowering Conv2d ran before sample blocking, built from
/// public pieces: one im2col + GEMM per sample forward, one GEMM + col2im
/// per sample for dX, and dW/db summed per reduction_grain block into
/// zeroed partials merged in block order. With `int8_scale` > 0 the MVMs
/// take the int8 path per sample, falling back to fp32 on a refusal.
ConvResult reference_conv(const ConvCase& k, const Tensor& w,
                          const Tensor& bias, const Tensor& x,
                          const Tensor& dy, float int8_scale) {
  const std::size_t n = x.shape()[0];
  const ConvGeom g{k.in_ch, k.height, k.width, k.kernel, k.kernel, k.stride,
                   k.pad};
  const std::size_t cr = g.col_rows(), cc = g.col_cols();
  const std::size_t in_plane = k.in_ch * k.height * k.width;
  const std::size_t out_plane = k.out_ch * cc;
  ConvResult r{Tensor(Shape{n, k.out_ch, g.out_h(), g.out_w()}),
               Tensor(x.shape()), Tensor(w.shape()), Tensor(bias.shape())};
  Int8APack fwd_i8, bwd_i8;
  if (int8_scale > 0.0f) {
    fwd_i8.pack(k.out_ch, cr, StridedOperand{w.data(), cr, 1}, int8_scale);
    bwd_i8.pack(cr, k.out_ch, StridedOperand{w.data(), 1, cr}, int8_scale);
  }
  std::vector<float> cols(n * cr * cc), dcol(cr * cc);
  for (std::size_t i = 0; i < n; ++i) {
    float* col = cols.data() + i * cr * cc;
    float* yi = r.y.data() + i * out_plane;
    im2col(x.data() + i * in_plane, g, col);
    if (int8_scale <= 0.0f ||
        !fwd_i8.multiply(cc, StridedOperand{col, cc, 1}, yi, cc))
      gemm(false, false, k.out_ch, cc, cr, 1.0f, w.data(), cr, col, cc, 0.0f,
           yi, cc);
    for (std::size_t o = 0; o < k.out_ch; ++o)
      for (std::size_t p = 0; p < cc; ++p) yi[o * cc + p] += bias[o];

    const float* dyi = dy.data() + i * out_plane;
    if (int8_scale <= 0.0f ||
        !bwd_i8.multiply(cc, StridedOperand{dyi, cc, 1}, dcol.data(), cc))
      gemm(true, false, cr, cc, k.out_ch, 1.0f, w.data(), cr, dyi, cc, 0.0f,
           dcol.data(), cc);
    col2im(dcol.data(), g, r.dx.data() + i * in_plane);
  }
  const std::size_t grain = reduction_grain(n);
  for (std::size_t s0 = 0; s0 < n; s0 += grain) {
    Tensor dw = Tensor::zeros(w.shape());
    std::vector<float> db(k.out_ch, 0.0f);
    for (std::size_t i = s0; i < std::min(n, s0 + grain); ++i) {
      const float* dyi = dy.data() + i * out_plane;
      gemm(false, true, k.out_ch, cr, cc, 1.0f, dyi, cc,
           cols.data() + i * cr * cc, cc, 1.0f, dw.data(), cr);
      for (std::size_t o = 0; o < k.out_ch; ++o) {
        float s = 0.0f;
        for (std::size_t p = 0; p < cc; ++p) s += dyi[o * cc + p];
        db[o] += s;
      }
    }
    for (std::size_t e = 0; e < dw.numel(); ++e) r.dw[e] += dw[e];
    for (std::size_t o = 0; o < k.out_ch; ++o) r.db[o] += db[o];
  }
  return r;
}

/// One training step of a fresh Conv2d at `threads` workers.
ConvResult blocked_conv(const ConvCase& k, const Tensor& w, const Tensor& bias,
                        const Tensor& x, const Tensor& dy,
                        const FaultView* int8_view, std::size_t threads) {
  ThreadGuard guard(threads);
  Rng rng(1);
  Conv2d conv(k.in_ch, k.out_ch, k.kernel, k.stride, k.pad, rng);
  conv.weight_param().value = w;
  conv.params()[1]->value = bias;
  if (int8_view) conv.set_fault_views(*int8_view, *int8_view);
  ConvResult r;
  r.y = conv.forward(x, /*train=*/true);
  r.dx = conv.backward(dy);
  r.dw = conv.params()[0]->grad;
  r.db = conv.params()[1]->grad;
  return r;
}

void expect_bitwise(const ConvResult& got, const ConvResult& want,
                    const std::string& what) {
  EXPECT_TRUE(bitwise_equal(got.y, want.y)) << what << ": y";
  EXPECT_TRUE(bitwise_equal(got.dx, want.dx)) << what << ": dx";
  EXPECT_TRUE(bitwise_equal(got.dw, want.dw)) << what << ": dW";
  EXPECT_TRUE(bitwise_equal(got.db, want.db)) << what << ": db";
}

const std::vector<ConvCase>& blocking_cases() {
  static const std::vector<ConvCase> cases{
      {3, 5, 3, 1, 1, 2, 2},  // 2x2 output, 3x3 pad 1
      {3, 5, 3, 2, 1, 2, 2},  // 1x1 output
      {4, 7, 3, 2, 1, 8, 8},  // stride 2 -> 4x4
      {4, 7, 1, 2, 0, 8, 8},  // 1x1 stride-2 shortcut
      {3, 5, 3, 1, 1, 6, 6},  // 3x3 pad 1, 36 positions
      {3, 5, 3, 1, 1, 16, 16},  // 16-wide rows: every strip one run
      {3, 5, 3, 1, 1, 5, 9},    // non-square: runs break mid-strip
      {3, 5, 5, 1, 2, 7, 7},    // 5x5 pad 2
  };
  return cases;
}

/// A 16-level int8 view (w_max = 1) and weights on its level grid, so the
/// int8 path's weight quantization is exact.
FaultView int8_view() {
  FaultView view;
  view.levels = 16;
  view.w_max = 1.0f;
  view.int8_path = true;
  return view;
}

Tensor level_grid_weights(const Shape& shape, float scale, Rng& rng) {
  Tensor w(shape);
  for (std::size_t e = 0; e < w.numel(); ++e)
    w[e] = static_cast<float>(static_cast<int>(rng.uniform() * 15) - 7) *
           scale;
  return w;
}

TEST(ParallelConvBlocking, MatchesPerSampleReferenceBitwise) {
  // fp32 and int8 (level-grid weights, one activation scale per sample)
  // against the per-sample lowering.
  const FaultView view = int8_view();
  const float scale = view.int8_weight_scale();
  for (const bool int8 : {false, true}) {
    for (const ConvCase& k : blocking_cases()) {
      for (const std::size_t n : {std::size_t{1}, std::size_t{5},
                                  std::size_t{32}, std::size_t{64}}) {
        Rng rng(k.height * 100 + k.stride * 10 + k.kernel + n);
        const Shape wshape{k.out_ch, k.in_ch * k.kernel * k.kernel};
        const Tensor w = int8 ? level_grid_weights(wshape, scale, rng)
                              : Tensor::randn(wshape, rng);
        const Tensor bias = Tensor::randn(Shape{k.out_ch}, rng);
        const Tensor x =
            Tensor::randn(Shape{n, k.in_ch, k.height, k.width}, rng);
        const ConvGeom g{k.in_ch, k.height, k.width, k.kernel, k.kernel,
                         k.stride, k.pad};
        const Tensor dy =
            Tensor::randn(Shape{n, k.out_ch, g.out_h(), g.out_w()}, rng);
        const ConvResult want =
            reference_conv(k, w, bias, x, dy, int8 ? scale : 0.0f);
        for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
          const std::string what = std::string(int8 ? "int8" : "fp32") +
                                   " k=" + std::to_string(k.kernel) +
                                   " s=" + std::to_string(k.stride) +
                                   " " + std::to_string(k.height) +
                                   "px n=" + std::to_string(n) +
                                   " threads=" + std::to_string(threads);
          expect_bitwise(
              blocked_conv(k, w, bias, x, dy, int8 ? &view : nullptr, threads),
              want, what);
        }
      }
    }
  }
}

TEST(ParallelConvBlocking, WideLayersMatchPerSampleReferenceBitwise) {
  // db sums 8 dy planes in lockstep; 8, 13 and 20 output channels run
  // full 8-wide groups and each narrower leftover width (the cases above
  // have 5 and 7).
  for (const std::size_t out_ch : {8, 13, 20}) {
    const ConvCase k{3, out_ch, 3, 1, 1, 6, 6};
    Rng rng(out_ch);
    const Tensor w = Tensor::randn(Shape{out_ch, 27}, rng);
    const Tensor bias = Tensor::randn(Shape{out_ch}, rng);
    const Tensor x = Tensor::randn(Shape{5, 3, 6, 6}, rng);
    const Tensor dy = Tensor::randn(Shape{5, out_ch, 6, 6}, rng);
    const ConvResult want = reference_conv(k, w, bias, x, dy, 0.0f);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}})
      expect_bitwise(blocked_conv(k, w, bias, x, dy, nullptr, threads), want,
                     std::to_string(out_ch) + " channels, threads=" +
                         std::to_string(threads));
  }
}

TEST(ParallelConvBlocking, Int8ScaleIsTakenOverThePixelsThePanelReads) {
  // A 1x1 stride-2 shortcut never reads odd rows/columns. A huge or NaN
  // value there must neither set a sample's activation scale nor push it
  // to the fp32 route: the result stays bitwise the per-sample panel
  // product, with no fallback.
  const ConvCase k{4, 7, 1, 2, 0, 8, 8};
  const std::size_t n = 6;
  Rng rng(37);
  const FaultView view = int8_view();
  const float scale = view.int8_weight_scale();
  const Tensor w =
      level_grid_weights(Shape{k.out_ch, k.in_ch}, scale, rng);
  const Tensor bias = Tensor::randn(Shape{k.out_ch}, rng);
  Tensor x = Tensor::randn(Shape{n, k.in_ch, k.height, k.width}, rng);
  const Tensor dy = Tensor::randn(Shape{n, k.out_ch, 4, 4}, rng);
  const std::size_t plane = k.in_ch * k.height * k.width;
  x[1 * plane + 1 * k.width + 3] = 1e30f;  // row 1: never read
  x[4 * plane + 2 * k.width + 5] = std::numeric_limits<float>::quiet_NaN();
  const ConvResult want = reference_conv(k, w, bias, x, dy, scale);

  telemetry::set_enabled(true);
  telemetry::Counter& fallbacks =
      telemetry::Registry::instance().counter("nn.conv.int8_fallbacks");
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const std::uint64_t before = fallbacks.value();
    expect_bitwise(blocked_conv(k, w, bias, x, dy, &view, threads), want,
                   "threads=" + std::to_string(threads));
    EXPECT_EQ(fallbacks.value(), before);
  }
  telemetry::set_enabled(false);
}

TEST(ParallelConvBlocking, Int8NonFiniteSampleFallsBackAlone) {
  // Five samples of a 2x2-output conv share one block at one thread. The
  // middle sample carries a NaN in x and in dy: its forward and dX MVMs
  // must take the fp32 route, and only its own — the other samples of the
  // block stay on the int8 path.
  const ConvCase k{3, 5, 3, 1, 1, 2, 2};
  const std::size_t n = 5, bad = 2;
  Rng rng(29);
  FaultView view;
  view.levels = 16;
  view.w_max = 1.0f;
  view.int8_path = true;
  const float scale = view.int8_weight_scale();
  Tensor w(Shape{k.out_ch, k.in_ch * k.kernel * k.kernel});
  for (std::size_t e = 0; e < w.numel(); ++e)  // on the level grid
    w[e] = static_cast<float>(static_cast<int>(e % 15) - 7) * scale;
  const Tensor bias = Tensor::randn(Shape{k.out_ch}, rng);
  Tensor x = Tensor::randn(Shape{n, k.in_ch, k.height, k.width}, rng);
  Tensor dy = Tensor::randn(Shape{n, k.out_ch, 2, 2}, rng);
  x[bad * k.in_ch * 4 + 1] = std::numeric_limits<float>::quiet_NaN();
  dy[bad * k.out_ch * 4 + 3] = std::numeric_limits<float>::quiet_NaN();
  const ConvResult want = reference_conv(k, w, bias, x, dy, scale);

  telemetry::set_enabled(true);
  telemetry::Counter& fallbacks =
      telemetry::Registry::instance().counter("nn.conv.int8_fallbacks");
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const std::uint64_t before = fallbacks.value();
    const ConvResult got = blocked_conv(k, w, bias, x, dy, &view, threads);
    expect_bitwise(got, want, "threads=" + std::to_string(threads));
    EXPECT_EQ(fallbacks.value() - before, 2u)
        << "one forward and one dX fallback, for the NaN sample only";
    for (std::size_t i = 0; i < n; ++i) {
      bool any_nan = false;
      for (std::size_t e = 0; e < k.out_ch * 4; ++e)
        any_nan = any_nan || std::isnan(got.y[i * k.out_ch * 4 + e]);
      EXPECT_EQ(any_nan, i == bad) << "sample " << i;
    }
  }
  telemetry::set_enabled(false);
}

TEST(ParallelConvBlocking, SteadyStateTrainingDoesNotGrowScratch) {
  // Covers every conv buffer: the padded training inputs and offset
  // tables of each layer, and the per-thread block panels, padded images
  // (eval input, backward dx) and eval offset tables, which the three
  // geometries below rebuild on every call without growing.
  ThreadGuard guard(1);  // one thread -> one deterministic set of arenas
  Rng rng(31);
  Conv2d stem(3, 8, 3, 1, 1, rng);
  Conv2d deep(8, 16, 3, 2, 1, rng);  // 4x4 -> 2x2: multi-sample blocks
  Conv2d shortcut(8, 16, 1, 2, 0, rng);  // 1x1, no pad
  Conv2d quant(8, 16, 3, 2, 1, rng);  // the int8 path's quantized images
  quant.set_fault_views(int8_view(), int8_view());
  const Tensor x = Tensor::randn(Shape{32, 3, 4, 4}, rng);
  const auto step = [&] {
    const Tensor h = stem.forward(x, /*train=*/true);
    const Tensor y = deep.forward(h, /*train=*/true);
    const Tensor z = shortcut.forward(h, /*train=*/true);
    const Tensor q = quant.forward(h, /*train=*/true);
    Tensor dh = deep.backward(y);
    const Tensor dz = shortcut.backward(z);
    const Tensor dq = quant.backward(q);
    for (std::size_t e = 0; e < dh.numel(); ++e) dh[e] += dz[e] + dq[e];
    stem.backward(dh);
    const Tensor he = stem.forward(x, /*train=*/false);
    deep.forward(he, /*train=*/false);
    shortcut.forward(he, /*train=*/false);
    quant.forward(he, /*train=*/false);
  };
  const std::uint64_t before = conv_scratch_allocations();
  step();  // warm the arenas
  const std::uint64_t warm = conv_scratch_allocations();
  const std::uint64_t warm_gemm = gemm_scratch_allocations();
  EXPECT_GE(warm - before, 8u)
      << "each layer's padded input and offset tables count as growths";
  for (int i = 0; i < 5; ++i) step();
  EXPECT_EQ(conv_scratch_allocations(), warm)
      << "same-shape training steps must reuse the conv scratch arenas";
  EXPECT_EQ(gemm_scratch_allocations(), warm_gemm);
}

TEST(ParallelDeterminism, FaultInjectionBitwise) {
  const auto run = [](std::size_t threads) {
    ThreadGuard guard(threads);
    RcsConfig cfg;
    cfg.tiles_x = cfg.tiles_y = 2;
    cfg.xbar_rows = cfg.xbar_cols = 32;
    Rcs rcs(cfg);
    Rng rng(7);
    FaultInjector injector(FaultScenario::paper_default(), rng);
    injector.inject_pre_deployment(rcs);
    injector.inject_post_deployment(rcs);
    injector.inject_post_deployment(rcs);
    std::vector<std::set<std::pair<std::size_t, std::size_t>>> cells;
    for (XbarId id = 0; id < rcs.total_crossbars(); ++id) {
      const auto faulty = rcs.crossbar(id).faulty_cells();
      cells.emplace_back(faulty.begin(), faulty.end());
    }
    return cells;
  };
  EXPECT_EQ(run(1), run(4));
}

TEST(ParallelDeterminism, BistSurveyBitwise) {
  const auto run = [](std::size_t threads) {
    ThreadGuard guard(threads);
    RcsConfig cfg;
    cfg.tiles_x = cfg.tiles_y = 2;
    cfg.xbar_rows = cfg.xbar_cols = 32;
    Rcs rcs(cfg);
    Rng rng(13);
    FaultInjector injector(FaultScenario::paper_default(), rng);
    injector.inject_pre_deployment(rcs);
    std::uint64_t cycles = 0;
    const std::vector<double> densities =
        BistController{}.survey(rcs, &cycles);
    return std::make_pair(densities, cycles);
  };
  EXPECT_EQ(run(1), run(4));
}

// The end-to-end property the layer exists for: a full faulty training run
// (forward/backward gemms, BIST surveys, fault injection, remapping,
// evaluation) is bitwise reproducible across thread counts.
TEST(ParallelDeterminismSlow, TrainerBitwise) {
  // resnet12 adds the residual topology: stride-2 3x3 convs, 1x1
  // shortcuts and 2x2 outputs whose GEMM strips span several samples.
  // resnet12-int8 is the int8 workload: 4-bit cells on the int8 path,
  // SAF plus transient upsets, verify-and-refresh.
  for (const char* name : {"vgg11", "resnet12", "resnet12-int8"}) {
    SCOPED_TRACE(name);
    const std::string variant = name;
    const auto run = [&variant](std::size_t threads) {
      ThreadGuard guard(threads);
      TrainerConfig cfg;
      cfg.model = variant == "vgg11" ? "vgg11" : "resnet12";
      cfg.epochs = 2;
      cfg.batch_size = 16;
      cfg.data.train = 48;
      cfg.data.test = 32;
      cfg.data.image_size = 12;
      cfg.policy = "remap-d";
      cfg.faults = FaultScenario::paper_default();
      if (variant == "resnet12-int8") {
        cfg.policy = "refresh";
        cfg.quant.enabled = true;
        cfg.quant.cell_bits = 4;
        cfg.quant.int8_gemm = true;
        apply_fault_model(cfg, "saf+transient");
      }
      FaultAwareTrainer trainer(cfg);
      const TrainResult r = trainer.run();
      std::vector<std::set<std::pair<std::size_t, std::size_t>>> cells;
      for (XbarId id = 0; id < trainer.rcs().total_crossbars(); ++id) {
        const auto faulty = trainer.rcs().crossbar(id).faulty_cells();
        cells.emplace_back(faulty.begin(), faulty.end());
      }
      return std::make_pair(r, cells);
    };
    const auto [r1, cells1] = run(1);
    const auto [r4, cells4] = run(4);
    ASSERT_EQ(r1.history.size(), r4.history.size());
    for (std::size_t e = 0; e < r1.history.size(); ++e) {
      EXPECT_EQ(r1.history[e].train_loss, r4.history[e].train_loss) << e;
      EXPECT_EQ(r1.history[e].train_accuracy, r4.history[e].train_accuracy)
          << e;
      EXPECT_EQ(r1.history[e].test_accuracy, r4.history[e].test_accuracy) << e;
      EXPECT_EQ(r1.history[e].remaps, r4.history[e].remaps) << e;
      EXPECT_EQ(r1.history[e].total_faults, r4.history[e].total_faults) << e;
      EXPECT_EQ(r1.history[e].new_faults, r4.history[e].new_faults) << e;
      EXPECT_EQ(r1.history[e].new_upsets, r4.history[e].new_upsets) << e;
      EXPECT_EQ(r1.history[e].live_upsets, r4.history[e].live_upsets) << e;
      EXPECT_EQ(r1.history[e].refreshed_cells, r4.history[e].refreshed_cells)
          << e;
    }
    EXPECT_EQ(r1.final_test_accuracy, r4.final_test_accuracy);
    EXPECT_EQ(r1.total_remaps, r4.total_remaps);
    EXPECT_EQ(cells1, cells4);
  }
}

// ---------------------------------------------------------------------------
// Regression: gemm must not suppress NaN/Inf from B via the zero-A skip
// ---------------------------------------------------------------------------

TEST(GemmRegression, NaNInBPropagatesThroughZeroA) {
  // Row of zeros in A times a column containing NaN: 0 * NaN = NaN, so the
  // product must be NaN. The old kernel skipped zero A entries and returned
  // a clean 0 instead.
  Tensor a = Tensor::zeros(Shape{2, 3});
  a[0] = 1.0f;  // a(0,0); row 1 stays all-zero
  Tensor b = Tensor::zeros(Shape{3, 2});
  b[0] = std::numeric_limits<float>::quiet_NaN();   // b(0,0)
  b[3] = std::numeric_limits<float>::infinity();    // b(1,1)
  const Tensor c = matmul(a, b);
  EXPECT_TRUE(std::isnan(c[0]));  // 1*NaN
  EXPECT_TRUE(std::isnan(c[1]));  // 1*NaN? no: c(0,1) = 0*Inf = NaN
  EXPECT_TRUE(std::isnan(c[2]));  // 0*NaN
  EXPECT_TRUE(std::isnan(c[3]));  // 0*Inf
}

TEST(GemmRegression, SparseAMatchesReference) {
  // A sparse A panel must produce the same values as the dense reference —
  // within FP tolerance: the packed kernel's accumulation grouping (and its
  // use of FMA where available) legitimately differs from a scalar triple
  // loop, but sparsity must never alter which products are issued.
  Rng rng(31);
  Tensor a = Tensor::randn(Shape{17, 9}, rng);
  for (std::size_t i = 0; i < a.numel(); i += 3) a[i] = 0.0f;
  const Tensor b = Tensor::randn(Shape{9, 13}, rng);
  const Tensor c = matmul(a, b);
  for (std::size_t i = 0; i < 17; ++i)
    for (std::size_t j = 0; j < 13; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < 9; ++k)
        acc += static_cast<double>(a[i * 9 + k]) * b[k * 13 + j];
      EXPECT_NEAR(c[i * 13 + j], acc, 1e-5 * (std::abs(acc) + 1.0))
          << i << "," << j;
    }
}

// ---------------------------------------------------------------------------
// Regression: FaultView::apply must reject out-of-range clamps
// ---------------------------------------------------------------------------

TEST(FaultViewRegression, OutOfRangeClampThrows) {
  FaultView view;
  view.clamps.push_back({2, WeightClampKind::kPosStuck1});
  view.clamps.push_back({4, WeightClampKind::kPosStuck0});  // out of range
  const float w[4] = {0.1f, 0.2f, 0.3f, 0.4f};
  float out[4];
  EXPECT_THROW(view.apply(w, out, 4), std::out_of_range);

  view.clamps.pop_back();
  view.apply(w, out, 4);  // in-range clamps still apply cleanly
  EXPECT_EQ(out[2], view.w_max);
  EXPECT_EQ(out[0], w[0]);
}

// ---------------------------------------------------------------------------
// Regression: BatchNorm window statistics must pool variance exactly
// ---------------------------------------------------------------------------

TEST(BatchNormRegression, WindowStatsMatchPooledComputation) {
  // Feed batches whose *means* differ strongly; averaging per-batch
  // variances would ignore the between-batch variance and over-sharpen the
  // eval normalization. The window must reproduce the exact statistics of
  // all samples pooled together.
  const std::size_t channels = 2;
  BatchNorm bn(channels);
  bn.begin_stats_window();

  Rng rng(47);
  std::vector<Tensor> batches;
  const float shifts[3] = {-4.0f, 0.0f, 4.0f};
  for (const float shift : shifts) {
    Tensor x = Tensor::randn(Shape{8, channels}, rng);
    for (std::size_t i = 0; i < x.numel(); ++i) x[i] += shift;
    batches.push_back(x);
    (void)bn.forward(x, /*train=*/true);
  }

  // Pooled per-channel mean/var over every sample of every batch.
  std::vector<double> mean(channels, 0.0), var(channels, 0.0);
  const std::size_t per_ch = 8 * batches.size();
  for (std::size_t ch = 0; ch < channels; ++ch) {
    for (const Tensor& x : batches)
      for (std::size_t nidx = 0; nidx < 8; ++nidx)
        mean[ch] += x[nidx * channels + ch];
    mean[ch] /= static_cast<double>(per_ch);
    for (const Tensor& x : batches)
      for (std::size_t nidx = 0; nidx < 8; ++nidx) {
        const double d = x[nidx * channels + ch] - mean[ch];
        var[ch] += d * d;
      }
    var[ch] /= static_cast<double>(per_ch);
  }

  // gamma starts at 1 and beta at 0, so eval output is plain (x-mean)/std.
  Tensor probe = Tensor::zeros(Shape{1, channels});
  for (std::size_t ch = 0; ch < channels; ++ch) probe[ch] = 1.5f;
  const Tensor y = bn.forward(probe, /*train=*/false);
  for (std::size_t ch = 0; ch < channels; ++ch) {
    const double expect =
        (1.5 - mean[ch]) / std::sqrt(var[ch] + 1e-5);
    EXPECT_NEAR(y[ch], expect, 1e-4) << "channel " << ch;
  }
}

// ---------------------------------------------------------------------------
// Regression: MaxPool backward after an eval forward must throw
// ---------------------------------------------------------------------------

TEST(MaxPoolRegression, BackwardAfterEvalForwardThrows) {
  Rng rng(5);
  MaxPool2d pool(2);
  const Tensor x = Tensor::randn(Shape{2, 3, 8, 8}, rng);

  Tensor y = pool.forward(x, /*train=*/true);
  EXPECT_NO_THROW((void)pool.backward(Tensor::zeros(y.shape())));

  // An eval forward invalidates the saved argmax; routing gradients with it
  // would silently use the *training* batch's indices.
  (void)pool.forward(x, /*train=*/false);
  EXPECT_THROW((void)pool.backward(Tensor::zeros(y.shape())),
               std::logic_error);

  // A fresh train forward re-arms backward.
  y = pool.forward(x, /*train=*/true);
  EXPECT_NO_THROW((void)pool.backward(Tensor::zeros(y.shape())));
}

}  // namespace
}  // namespace remapd
