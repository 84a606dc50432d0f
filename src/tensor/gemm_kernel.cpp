#include "tensor/gemm_kernel.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <stdexcept>

#include "tensor/gemm_testing.hpp"
#include "util/parallel.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define REMAPD_GEMM_X86_DISPATCH 1
#include <immintrin.h>
#endif

namespace remapd {
namespace {

std::atomic<std::uint64_t> g_scratch_allocs{0};

// Grow-only scratch arena: one per thread (workers persist across calls, so
// thread_local buffers amortize to zero allocations in steady state).
struct Arena {
  std::vector<float> buf;
  float* ensure(std::size_t n) {
    if (buf.size() < n) {
      buf.resize(n);
      g_scratch_allocs.fetch_add(1, std::memory_order_relaxed);
    }
    return buf.data();
  }
};
thread_local Arena t_apack_arena;
thread_local Arena t_bpack_arena;

constexpr std::size_t kTile = kMR * kNR;

// ---------------------------------------------------------------------------
// Micro-kernels: a full kMR x kNR tile over one packed depth chunk, kept in
// registers and written straight into C (leading dimension ldc). `store`
// marks the first chunk of a beta == 0 product: the kernel writes
// 0.0f + acc without reading C (the add turns an accumulator that underflowed
// to -0 into +0, as clearing C and then adding did); otherwise it updates
// C += acc. The per-lane accumulation is strictly ascending in k, so every C
// element's FP order is independent of tiling, partitioning, and thread
// count.
// ---------------------------------------------------------------------------

using MicroFn = void (*)(std::size_t kc, const float* ap, const float* bp,
                         float* c, std::size_t ldc, bool store);

void micro_portable(std::size_t kc, const float* ap, const float* bp,
                    float* c, std::size_t ldc, bool store) {
  float acc[kTile] = {0.0f};
  for (std::size_t p = 0; p < kc; ++p) {
    const float* brow = bp + p * kNR;
    const float* arow = ap + p * kMR;
    for (std::size_t r = 0; r < kMR; ++r) {
      const float av = arow[r];
      float* crow = acc + r * kNR;
      // Fused like micro_avx2's vfmadd, so every variant rounds once per
      // product-add and writes the same bytes.
#pragma omp simd
      for (std::size_t j = 0; j < kNR; ++j)
        crow[j] = __builtin_fmaf(av, brow[j], crow[j]);
    }
  }
  for (std::size_t r = 0; r < kMR; ++r) {
    float* crow = c + r * ldc;
    const float* arow = acc + r * kNR;
    if (store) {
#pragma omp simd
      for (std::size_t j = 0; j < kNR; ++j) crow[j] = 0.0f + arow[j];
    } else {
#pragma omp simd
      for (std::size_t j = 0; j < kNR; ++j) crow[j] += arow[j];
    }
  }
}

#ifdef REMAPD_GEMM_X86_DISPATCH
// The unrolled kMR loops keep the 12 accumulators in YMM registers; rolled,
// GCC at -O2 spills them to the stack on every depth step.
__attribute__((target("avx2,fma"))) void micro_avx2(std::size_t kc,
                                                    const float* ap,
                                                    const float* bp, float* c,
                                                    std::size_t ldc,
                                                    bool store) {
  __m256 acc[kMR][2];
#pragma GCC unroll 6
  for (std::size_t r = 0; r < kMR; ++r)
    acc[r][0] = acc[r][1] = _mm256_setzero_ps();
  for (std::size_t p = 0; p < kc; ++p) {
    const __m256 b0 = _mm256_loadu_ps(bp + p * kNR);
    const __m256 b1 = _mm256_loadu_ps(bp + p * kNR + 8);
    const float* arow = ap + p * kMR;
#pragma GCC unroll 6
    for (std::size_t r = 0; r < kMR; ++r) {
      const __m256 av = _mm256_broadcast_ss(arow + r);
      acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
      acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
    }
  }
  if (store) {
    const __m256 zero = _mm256_setzero_ps();
#pragma GCC unroll 6
    for (std::size_t r = 0; r < kMR; ++r) {
      _mm256_storeu_ps(c + r * ldc, _mm256_add_ps(zero, acc[r][0]));
      _mm256_storeu_ps(c + r * ldc + 8, _mm256_add_ps(zero, acc[r][1]));
    }
    return;
  }
#pragma GCC unroll 6
  for (std::size_t r = 0; r < kMR; ++r) {
    float* crow = c + r * ldc;
    _mm256_storeu_ps(crow, _mm256_add_ps(_mm256_loadu_ps(crow), acc[r][0]));
    _mm256_storeu_ps(crow + 8,
                     _mm256_add_ps(_mm256_loadu_ps(crow + 8), acc[r][1]));
  }
}
#endif

struct MicroChoice {
  MicroFn fn;
  const char* name;
};

// Every variant, in ascending dispatch preference.
constexpr MicroChoice kVariants[] = {
    {micro_portable, "portable"},
#ifdef REMAPD_GEMM_X86_DISPATCH
    {micro_avx2, "avx2"},
#endif
};

bool cpu_runs(const MicroChoice& v) {
#ifdef REMAPD_GEMM_X86_DISPATCH
  if (v.fn == micro_avx2)
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#endif
  (void)v;
  return true;
}

/// The variant in force: the most preferred one the CPU runs, unless a
/// test has forced another (gemm_testing::force_kernel).
std::atomic<const MicroChoice*>& choice_slot() {
  static std::atomic<const MicroChoice*> slot{[] {
    const MicroChoice* best = &kVariants[0];
    for (const MicroChoice& v : kVariants)
      if (cpu_runs(v)) best = &v;
    return best;
  }()};
  return slot;
}

const MicroChoice& micro_choice() {
  return *choice_slot().load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Packing
// ---------------------------------------------------------------------------

/// Number of kMR strips covering m rows.
inline std::size_t a_strips(std::size_t m) { return (m + kMR - 1) / kMR; }

/// Pack alpha*op(A) for all depth chunks into `dst` (layout: chunk-major,
/// then kMR strip, then [p * kMR + r]). Only strips intersecting
/// [r0, r1) are written, so concurrent callers with disjoint kMR-aligned
/// row ranges touch disjoint regions.
void pack_a_rows(std::size_t r0, std::size_t r1, std::size_t m, std::size_t k,
                 float alpha, StridedOperand a, float* dst) {
  const std::size_t nstrips = a_strips(m);
  for (std::size_t pc = 0; pc < k; pc += kKC) {
    const std::size_t kc = std::min(kKC, k - pc);
    for (std::size_t g = r0 / kMR; g * kMR < r1; ++g) {
      float* strip = dst + nstrips * kMR * pc + g * kMR * kc;
      const std::size_t rows = std::min(kMR, m - g * kMR);
      for (std::size_t r = 0; r < rows; ++r) {
        const float* src = a.ptr + (g * kMR + r) * a.row_stride +
                           pc * a.col_stride;
        for (std::size_t p = 0; p < kc; ++p)
          strip[p * kMR + r] = alpha * src[p * a.col_stride];
      }
      for (std::size_t r = rows; r < kMR; ++r)
        for (std::size_t p = 0; p < kc; ++p) strip[p * kMR + r] = 0.0f;
    }
  }
}

/// Pack op(B)[pc:pc+kc, jc:jc+ncb] into kNR-wide strips ([p * kNR + lane],
/// zero-padded lanes past ncb). Strip `s` is a disjoint region, so strips
/// parallelize as copy-only blocks.
void pack_b_strip(std::size_t s, std::size_t pc, std::size_t kc,
                  std::size_t jc, std::size_t ncb, StridedOperand b,
                  float* dst) {
  float* strip = dst + s * kNR * kc;
  const std::size_t j0 = s * kNR;
  const std::size_t lanes = std::min(kNR, ncb - j0);
  if (b.col_stride == 1) {
    for (std::size_t p = 0; p < kc; ++p) {
      const float* src = b.ptr + (pc + p) * b.row_stride + jc + j0;
      float* out = strip + p * kNR;
      for (std::size_t j = 0; j < lanes; ++j) out[j] = src[j];
      for (std::size_t j = lanes; j < kNR; ++j) out[j] = 0.0f;
    }
  } else {
    for (std::size_t p = 0; p < kc; ++p) {
      const float* src = b.ptr + (pc + p) * b.row_stride +
                         (jc + j0) * b.col_stride;
      float* out = strip + p * kNR;
      for (std::size_t j = 0; j < lanes; ++j) out[j] = src[j * b.col_stride];
      for (std::size_t j = lanes; j < kNR; ++j) out[j] = 0.0f;
    }
  }
}

/// The ConvOperand variant: the same strips, gathered from padded images.
/// Untransposed, each lane is one panel column; a full strip whose lanes
/// form one contiguous run of the image (every strip of a stride-1 layer
/// with 16-wide output rows) copies each depth row, any other strip
/// gathers at its per-lane offsets. Transposed, lanes are panel rows and
/// each depth row (output position) gathers at row_off.
void pack_b_strip(std::size_t s, std::size_t pc, std::size_t kc,
                  std::size_t jc, std::size_t ncb, const ConvOperand& b,
                  float* dst) {
  float* strip = dst + s * kNR * kc;
  const std::size_t j0 = jc + s * kNR;
  const std::size_t lanes = std::min(kNR, ncb - s * kNR);
  if (b.transposed) {
    const std::int32_t* lane_off = b.row_off + j0;
    for (std::size_t p = 0; p < kc; ++p) {
      const float* src = b.img + b.col_off[pc + p];
      float* out = strip + p * kNR;
      for (std::size_t j = 0; j < lanes; ++j) out[j] = src[lane_off[j]];
      for (std::size_t j = lanes; j < kNR; ++j) out[j] = 0.0f;
    }
    return;
  }
  std::size_t lane_off[kNR];
  std::size_t sample = j0 / b.cols, q = j0 % b.cols;
  bool run = lanes == kNR;
  for (std::size_t j = 0; j < lanes; ++j) {
    lane_off[j] = sample * b.sample_stride +
                  static_cast<std::size_t>(b.col_off[q]);
    run = run && lane_off[j] == lane_off[0] + j;
    if (++q == b.cols) {
      q = 0;
      ++sample;
    }
  }
  for (std::size_t p = 0; p < kc; ++p) {
    const float* src = b.img + b.row_off[pc + p];
    float* out = strip + p * kNR;
    if (run) {
      std::memcpy(out, src + lane_off[0], kNR * sizeof(float));
      continue;
    }
    for (std::size_t j = 0; j < lanes; ++j) out[j] = src[lane_off[j]];
    for (std::size_t j = lanes; j < kNR; ++j) out[j] = 0.0f;
  }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Scale rows [r0, r1) x cols [j0, j1) of C by a general beta (neither 0
/// nor 1: the micro-kernel's store flag covers beta == 0, and beta == 1
/// leaves C as it is).
void scale_c(float beta, float* c, std::size_t ldc, std::size_t r0,
             std::size_t r1, std::size_t j0, std::size_t j1) {
  for (std::size_t i = r0; i < r1; ++i) {
    float* crow = c + i * ldc;
    for (std::size_t j = j0; j < j1; ++j) crow[j] *= beta;
  }
}

/// Merge a tail tile's valid rows x cols region into C, with the
/// micro-kernel's store semantics.
void merge_tile(const float* tile, float* c, std::size_t ldc,
                std::size_t rows, std::size_t cols, bool store) {
  for (std::size_t r = 0; r < rows; ++r) {
    float* crow = c + r * ldc;
    const float* trow = tile + r * kNR;
    if (store) {
#pragma omp simd
      for (std::size_t j = 0; j < cols; ++j) crow[j] = 0.0f + trow[j];
    } else {
#pragma omp simd
      for (std::size_t j = 0; j < cols; ++j) crow[j] += trow[j];
    }
  }
}

/// Shared compute stage over pre-packed A panels: the jc/pc panel loops,
/// per-chunk B packing, and the row-partitioned tile sweep. A full tile is
/// updated in C by the micro-kernel itself; a row or column tail runs the
/// kernel into an aligned scratch tile and merges its valid region. The B
/// operand type only selects the packer; the arithmetic is the same.
template <class BOperand>
void compute_packed(std::size_t m, std::size_t n, std::size_t k,
                    const float* apanels, const BOperand& b, float beta,
                    float* c, std::size_t ldc) {
  const MicroFn micro = micro_choice().fn;
  const std::size_t nstrips_a = a_strips(m);
  for (std::size_t jc = 0; jc < n; jc += kNC) {
    const std::size_t ncb = std::min(kNC, n - jc);
    const std::size_t nstrips_b = (ncb + kNR - 1) / kNR;
    for (std::size_t pc = 0; pc < k; pc += kKC) {
      const std::size_t kc = std::min(kKC, k - pc);
      float* bpack = t_bpack_arena.ensure(nstrips_b * kNR * kc);
      parallel_for(0, nstrips_b, 1, [&](std::size_t s0, std::size_t s1) {
        for (std::size_t s = s0; s < s1; ++s)
          pack_b_strip(s, pc, kc, jc, ncb, b, bpack);
      });
      // The first chunk of a beta == 0 product stores instead of adding.
      const bool store = pc == 0 && beta == 0.0f;
      parallel_for(0, m, kMC, [&](std::size_t r0, std::size_t r1) {
        // A general beta scales this block's own C rows right before its
        // first accumulation — no serial pre-scale pass, per-row order
        // unchanged.
        if (pc == 0 && beta != 0.0f && beta != 1.0f)
          scale_c(beta, c, ldc, r0, r1, jc, jc + ncb);
        alignas(32) float tile[kTile];
        for (std::size_t jr = 0; jr < ncb; jr += kNR) {
          const std::size_t cols = std::min(kNR, ncb - jr);
          const float* bp = bpack + (jr / kNR) * kNR * kc;
          for (std::size_t ir = r0; ir < r1; ir += kMR) {
            const std::size_t rows = std::min(kMR, r1 - ir);
            const float* ap = apanels + nstrips_a * kMR * pc +
                              (ir / kMR) * kMR * kc;
            float* cij = c + ir * ldc + jc + jr;
            if (rows == kMR && cols == kNR) {
              micro(kc, ap, bp, cij, ldc, store);
              continue;
            }
            // -0.0f is the exact additive identity (-0 + x == x for every
            // x, -0 included), so the tile receives the raw accumulators.
            std::fill(tile, tile + kTile, -0.0f);
            micro(kc, ap, bp, tile, kNR, false);
            merge_tile(tile, cij, ldc, rows, cols, store);
          }
        }
      });
    }
  }
}

template <class BOperand>
void gemm_packed_impl(std::size_t m, std::size_t n, std::size_t k,
                      float alpha, StridedOperand a, const BOperand& b,
                      float beta, float* c, std::size_t ldc) {
  float* apanels = t_apack_arena.ensure(a_strips(m) * kMR * k);
  parallel_for(0, m, kMC, [&](std::size_t r0, std::size_t r1) {
    pack_a_rows(r0, r1, m, k, alpha, a, apanels);
  });
  compute_packed(m, n, k, apanels, b, beta, c, ldc);
}

}  // namespace

void gemm_packed(std::size_t m, std::size_t n, std::size_t k, float alpha,
                 StridedOperand a, StridedOperand b, float beta, float* c,
                 std::size_t ldc) {
  gemm_packed_impl(m, n, k, alpha, a, b, beta, c, ldc);
}

void gemm_packed(std::size_t m, std::size_t n, std::size_t k, float alpha,
                 StridedOperand a, const ConvOperand& b, float beta, float* c,
                 std::size_t ldc) {
  gemm_packed_impl(m, n, k, alpha, a, b, beta, c, ldc);
}

void GemmAPack::pack(std::size_t m, std::size_t k, float alpha,
                     StridedOperand a) {
  m_ = m;
  k_ = k;
  const std::size_t needed = a_strips(m) * kMR * k;
  if (needed > panels_.capacity())
    g_scratch_allocs.fetch_add(1, std::memory_order_relaxed);
  panels_.resize(needed);
  float* dst = panels_.data();
  parallel_for(0, m, kMC, [&](std::size_t r0, std::size_t r1) {
    pack_a_rows(r0, r1, m, k, alpha, a, dst);
  });
}

void GemmAPack::multiply(std::size_t n, const float* b, std::size_t ldb,
                         float beta, float* c, std::size_t ldc) const {
  compute_packed(m_, n, k_, panels_.data(), StridedOperand{b, ldb, 1}, beta,
                 c, ldc);
}

void GemmAPack::multiply(std::size_t n, const ConvOperand& b, float beta,
                         float* c, std::size_t ldc) const {
  compute_packed(m_, n, k_, panels_.data(), b, beta, c, ldc);
}

std::uint64_t gemm_scratch_allocations() {
  return g_scratch_allocs.load(std::memory_order_relaxed);
}

const char* gemm_kernel_name() { return micro_choice().name; }

namespace gemm_testing {

std::vector<std::string> supported_kernels() {
  std::vector<std::string> names;
  for (const MicroChoice& v : kVariants)
    if (cpu_runs(v)) names.emplace_back(v.name);
  return names;
}

std::string force_kernel(const std::string& name) {
  for (const MicroChoice& v : kVariants) {
    if (name != v.name) continue;
    if (!cpu_runs(v))
      throw std::invalid_argument("fp32 kernel not runnable here: " + name);
    return choice_slot().exchange(&v, std::memory_order_relaxed)->name;
  }
  throw std::invalid_argument("unknown fp32 kernel: " + name);
}

}  // namespace gemm_testing

}  // namespace remapd
