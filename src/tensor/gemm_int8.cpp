#include "tensor/gemm_int8.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "telemetry/telemetry.hpp"
#include "tensor/gemm_int8_testing.hpp"
#include "util/parallel.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define REMAPD_INT8_X86_DISPATCH 1
#include <immintrin.h>
#endif

namespace remapd {
namespace {

// Register tile: 4 rows x 16 columns of int32 accumulators (4 rows x 2 ymm
// on AVX2/VNNI). Depth advances in quads of 4 k-values — the natural unit
// of the byte dot-product instructions.
constexpr std::size_t kQMR = 4;
constexpr std::size_t kQNR = 16;
constexpr std::size_t kQMC = 64;  // row-partition grain, multiple of kQMR

struct ByteArena {
  std::vector<std::uint8_t> buf;
  std::uint8_t* ensure(std::size_t n) {
    if (buf.size() < n) buf.resize(n);
    return buf.data();
  }
};
thread_local ByteArena t_int8_bpack_arena;
thread_local ByteArena t_int8_apack_arena;
// Per-call activation scales: one inverse and one dequant scale per
// column segment.
thread_local std::vector<float> t_int8_seg_scales;

/// Round-half-away-from-zero quantization of one value; NaN maps to 0,
/// +-inf saturate. The AVX2 twin below reproduces this lane-for-lane, so
/// quantization is identical no matter which GEMM core runs afterwards.
inline int quantize_clamped(float x, float inv, int qmax) {
  float t = x * inv;
  if (t != t) return 0;  // NaN
  const float lim = static_cast<float>(qmax);
  if (t > lim) return qmax;
  if (t < -lim) return -qmax;
  return static_cast<int>(t + (t >= 0.0f ? 0.5f : -0.5f));
}

#ifdef REMAPD_INT8_X86_DISPATCH
/// Vector twin of quantize_clamped: same multiply, same half-away-from-zero
/// rounding, same saturating clamp, NaN -> 0. Bit-identical per lane, so the
/// scalar fallback and the AVX2 packers may be mixed freely (strided vs
/// contiguous operands) without changing a single packed byte.
__attribute__((target("avx2"))) inline __m256i quantize8_avx2(__m256 v,
                                                              __m256 vinv,
                                                              __m256 vlim,
                                                              __m256i vqmax) {
  const __m256 t = _mm256_mul_ps(v, vinv);
  const __m256 half = _mm256_or_ps(
      _mm256_set1_ps(0.5f), _mm256_and_ps(t, _mm256_set1_ps(-0.0f)));
  __m256i r = _mm256_cvttps_epi32(_mm256_add_ps(t, half));
  const __m256i hi = _mm256_castps_si256(_mm256_cmp_ps(t, vlim, _CMP_GT_OQ));
  const __m256i lo = _mm256_castps_si256(_mm256_cmp_ps(
      t, _mm256_sub_ps(_mm256_setzero_ps(), vlim), _CMP_LT_OQ));
  r = _mm256_blendv_epi8(r, vqmax, hi);
  r = _mm256_blendv_epi8(
      r, _mm256_sub_epi32(_mm256_setzero_si256(), vqmax), lo);
  const __m256i nan = _mm256_castps_si256(_mm256_cmp_ps(t, t, _CMP_UNORD_Q));
  return _mm256_andnot_si256(nan, r);
}

/// Quantize 16 floats, lanes 0-7 with vinv0 and 8-15 with vinv1, to
/// biased bytes (u8 = q + 128) in lane order.
__attribute__((target("avx2"))) inline __m128i quantize16_u8_avx2(
    __m256 f0, __m256 f1, __m256 vinv0, __m256 vinv1) {
  const __m256 vlim = _mm256_set1_ps(127.0f);
  const __m256i vqmax = _mm256_set1_epi32(127);
  const __m256i q0 = quantize8_avx2(f0, vinv0, vlim, vqmax);
  const __m256i q1 = quantize8_avx2(f1, vinv1, vlim, vqmax);
  const __m256i w =
      _mm256_add_epi16(_mm256_permute4x64_epi64(_mm256_packs_epi32(q0, q1),
                                                0xD8),
                       _mm256_set1_epi16(128));
  return _mm_packus_epi16(_mm256_castsi256_si128(w),
                          _mm256_extracti128_si256(w, 1));
}

/// NaN-sticky max-|v| over a k x n operand with contiguous rows. max() is
/// exact and order-independent, so this reduces to the same scalar result;
/// any NaN (or inf, which max propagates) yields a non-finite return that
/// the caller turns into an fp32 fallback.
__attribute__((target("avx2"))) float maxabs_scan_avx2(std::size_t k,
                                                       std::size_t n,
                                                       StridedOperand b) {
  const __m256 absmask =
      _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  __m256 vmax = _mm256_setzero_ps();
  __m256 vnan = _mm256_setzero_ps();
  float tail = 0.0f;
  bool tail_nan = false;
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* row = b.ptr + kk * b.row_stride;
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      const __m256 v = _mm256_loadu_ps(row + j);
      vnan = _mm256_or_ps(vnan, _mm256_cmp_ps(v, v, _CMP_UNORD_Q));
      vmax = _mm256_max_ps(vmax, _mm256_and_ps(v, absmask));
    }
    for (; j < n; ++j) {
      const float v = std::fabs(row[j]);
      if (v != v) tail_nan = true;
      else if (v > tail) tail = v;
    }
  }
  if (_mm256_movemask_ps(vnan) != 0 || tail_nan)
    return std::numeric_limits<float>::quiet_NaN();
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, vmax);
  float m = tail;
  for (int i = 0; i < 8; ++i)
    if (lanes[i] > m) m = lanes[i];
  return m;
}

/// Dequantize one 16-wide accumulator row with per-lane scales (a strip
/// may span several column segments): cvtepi32->ps and the multiply round
/// exactly like the scalar casts, so results match bit-for-bit.
__attribute__((target("avx2"))) void dequant_row_avx2(
    const std::int32_t* trow, std::int32_t ci, const float* lscale,
    float* crow, std::size_t cols) {
  if (cols == kQNR) {
    const __m256i vci = _mm256_set1_epi32(ci);
    const __m256i t0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(trow));
    const __m256i t1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(trow + 8));
    _mm256_storeu_ps(crow, _mm256_mul_ps(_mm256_load_ps(lscale),
                                         _mm256_cvtepi32_ps(
                                             _mm256_sub_epi32(t0, vci))));
    _mm256_storeu_ps(crow + 8, _mm256_mul_ps(_mm256_load_ps(lscale + 8),
                                             _mm256_cvtepi32_ps(
                                                 _mm256_sub_epi32(t1, vci))));
  } else {
    for (std::size_t j = 0; j < cols; ++j)
      crow[j] = static_cast<float>(trow[j] - ci) * lscale[j];
  }
}

/// Quantize `len` contiguous floats to biased bytes (u8 = q + 128), 16 at
/// a time through quantize8_avx2, the tail through quantize_clamped.
__attribute__((target("avx2"))) void quantize_bytes_avx2(const float* src,
                                                         std::size_t len,
                                                         float inv,
                                                         std::uint8_t* dst) {
  const __m256 vinv = _mm256_set1_ps(inv);
  std::size_t i = 0;
  for (; i + 16 <= len; i += 16)
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     quantize16_u8_avx2(_mm256_loadu_ps(src + i),
                                        _mm256_loadu_ps(src + i + 8), vinv,
                                        vinv));
  for (; i < len; ++i)
    dst[i] = static_cast<std::uint8_t>(quantize_clamped(src[i], inv, 127) +
                                       128);
}
#endif

// ---------------------------------------------------------------------------
// Micro-kernels: one packed A strip (4 rows as int32 quads) against one
// packed B strip (16 columns, 64 bytes per quad), full depth, into an int32
// tile. Integer accumulation is exact, so the three implementations agree
// bit-for-bit by construction.
// ---------------------------------------------------------------------------

using Int8MicroFn = void (*)(std::size_t kq, const std::int32_t* ap,
                             const std::uint8_t* bp, std::int32_t* tile);

void micro_int8_portable(std::size_t kq, const std::int32_t* ap,
                         const std::uint8_t* bp, std::int32_t* tile) {
  std::int32_t acc[kQMR * kQNR] = {0};
  for (std::size_t p = 0; p < kq; ++p) {
    const std::uint8_t* bq = bp + p * 64;
    for (std::size_t r = 0; r < kQMR; ++r) {
      const std::uint32_t aq =
          static_cast<std::uint32_t>(ap[p * kQMR + r]);
      const int a0 = static_cast<std::int8_t>(aq & 0xff);
      const int a1 = static_cast<std::int8_t>((aq >> 8) & 0xff);
      const int a2 = static_cast<std::int8_t>((aq >> 16) & 0xff);
      const int a3 = static_cast<std::int8_t>((aq >> 24) & 0xff);
      std::int32_t* arow = acc + r * kQNR;
      for (std::size_t j = 0; j < kQNR; ++j) {
        const std::uint8_t* lane = bq + (j / 8) * 32 + (j % 8) * 4;
        arow[j] += a0 * lane[0] + a1 * lane[1] + a2 * lane[2] + a3 * lane[3];
      }
    }
  }
  std::memcpy(tile, acc, sizeof(acc));
}

#ifdef REMAPD_INT8_X86_DISPATCH
__attribute__((target("avx2"))) void micro_int8_avx2(std::size_t kq,
                                                     const std::int32_t* ap,
                                                     const std::uint8_t* bp,
                                                     std::int32_t* tile) {
  // Fully unrolled row loops keep the 8 accumulators in registers (at -O2
  // GCC otherwise keeps acc[][] on the stack and reloads it per k-quad).
  __m256i acc[kQMR][2];
#pragma GCC unroll 4
  for (std::size_t r = 0; r < kQMR; ++r)
    acc[r][0] = acc[r][1] = _mm256_setzero_si256();
  const __m256i ones = _mm256_set1_epi16(1);
  for (std::size_t p = 0; p < kq; ++p) {
    const __m256i b0 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(bp + p * 64));
    const __m256i b1 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(bp + p * 64 + 32));
#pragma GCC unroll 4
    for (std::size_t r = 0; r < kQMR; ++r) {
      const __m256i va = _mm256_set1_epi32(ap[p * kQMR + r]);
      // u8 (B) x s8 (A) pair-sums; exact because |A| <= 63 (see header).
      acc[r][0] = _mm256_add_epi32(
          acc[r][0],
          _mm256_madd_epi16(_mm256_maddubs_epi16(b0, va), ones));
      acc[r][1] = _mm256_add_epi32(
          acc[r][1],
          _mm256_madd_epi16(_mm256_maddubs_epi16(b1, va), ones));
    }
  }
#pragma GCC unroll 4
  for (std::size_t r = 0; r < kQMR; ++r) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(tile + r * kQNR),
                        acc[r][0]);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(tile + r * kQNR + 8),
                        acc[r][1]);
  }
}

__attribute__((target("avx512vnni,avx512vl"))) void micro_int8_vnni(
    std::size_t kq, const std::int32_t* ap, const std::uint8_t* bp,
    std::int32_t* tile) {
  __m256i acc[kQMR][2];  // in registers: see micro_int8_avx2
#pragma GCC unroll 4
  for (std::size_t r = 0; r < kQMR; ++r)
    acc[r][0] = acc[r][1] = _mm256_setzero_si256();
  for (std::size_t p = 0; p < kq; ++p) {
    const __m256i b0 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(bp + p * 64));
    const __m256i b1 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(bp + p * 64 + 32));
#pragma GCC unroll 4
    for (std::size_t r = 0; r < kQMR; ++r) {
      const __m256i va = _mm256_set1_epi32(ap[p * kQMR + r]);
      acc[r][0] = _mm256_dpbusd_epi32(acc[r][0], b0, va);
      acc[r][1] = _mm256_dpbusd_epi32(acc[r][1], b1, va);
    }
  }
#pragma GCC unroll 4
  for (std::size_t r = 0; r < kQMR; ++r) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(tile + r * kQNR),
                        acc[r][0]);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(tile + r * kQNR + 8),
                        acc[r][1]);
  }
}
#endif

struct Int8MicroChoice {
  Int8MicroFn fn;
  const char* name;
  // True when the AVX2 quantize/pack/scan/dequant helpers may run
  // (contiguous operands only; strided operands always take the scalar
  // packers).
  bool vector_pack;
};

// Every variant, in ascending dispatch preference.
constexpr Int8MicroChoice kInt8Variants[] = {
    {micro_int8_portable, "portable", false},
#ifdef REMAPD_INT8_X86_DISPATCH
    {micro_int8_avx2, "avx2", true},
    {micro_int8_vnni, "avx512vnni", true},
#endif
};

bool cpu_runs(const Int8MicroChoice& v) {
#ifdef REMAPD_INT8_X86_DISPATCH
  if (v.fn == micro_int8_portable) return true;
  const bool avx2 = __builtin_cpu_supports("avx2") != 0;
  if (v.fn == micro_int8_avx2) return avx2;
  return avx2 && __builtin_cpu_supports("avx512vnni") &&
         __builtin_cpu_supports("avx512vl");
#else
  (void)v;
  return true;
#endif
}

/// The variant in force: the most preferred one the CPU runs, unless a
/// test has forced another (int8_testing::force_kernel).
std::atomic<const Int8MicroChoice*>& int8_choice_slot() {
  static std::atomic<const Int8MicroChoice*> slot{[] {
    const Int8MicroChoice* best = &kInt8Variants[0];
    for (const Int8MicroChoice& v : kInt8Variants)
      if (cpu_runs(v)) best = &v;
    return best;
  }()};
  return slot;
}

const Int8MicroChoice& int8_micro_choice() {
  return *int8_choice_slot().load(std::memory_order_relaxed);
}

inline std::size_t quad_count(std::size_t k) { return (k + 3) / 4; }
inline std::size_t b_strips(std::size_t n) { return (n + kQNR - 1) / kQNR; }

/// Interleave four 16-byte k-rows into one 64-byte quad-row: lane j's
/// four k-bytes land at (j / 8) * 32 + (j % 8) * 4 (the VPDPBUSD operand
/// shape).
inline void interleave_quad(const std::uint8_t (&rowq)[4][kQNR],
                            std::uint8_t* out) {
#ifdef REMAPD_INT8_X86_DISPATCH
  const __m128i r0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(rowq[0]));
  const __m128i r1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(rowq[1]));
  const __m128i r2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(rowq[2]));
  const __m128i r3 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(rowq[3]));
  const __m128i xl = _mm_unpacklo_epi8(r0, r1);
  const __m128i yl = _mm_unpacklo_epi8(r2, r3);
  const __m128i xh = _mm_unpackhi_epi8(r0, r1);
  const __m128i yh = _mm_unpackhi_epi8(r2, r3);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out),
                   _mm_unpacklo_epi16(xl, yl));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 16),
                   _mm_unpackhi_epi16(xl, yl));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 32),
                   _mm_unpacklo_epi16(xh, yh));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 48),
                   _mm_unpackhi_epi16(xh, yh));
#else
  for (std::size_t j = 0; j < kQNR; ++j)
    for (std::size_t t = 0; t < 4; ++t)
      out[(j / 8) * 32 + (j % 8) * 4 + t] = rowq[t][j];
#endif
}

/// Quantize-and-pack one 16-column B strip: 64 bytes per k-quad, two
/// 32-byte halves of 8 lanes x 4 interleaved k-bytes (the VPDPBUSD operand
/// shape). Lane j quantizes with linv[j], its column's segment inverse.
/// Padding lanes/k-bytes hold 128 (= quantized zero).
void pack_b_strip_u8(std::size_t s, std::size_t k, std::size_t kq,
                     std::size_t n, StridedOperand b, const float* linv,
                     std::uint8_t* dst) {
  std::uint8_t* strip = dst + s * kq * 64;
  const std::size_t j0 = s * kQNR;
  const std::size_t lanes = std::min(kQNR, n - j0);
  for (std::size_t p = 0; p < kq; ++p) {
    std::uint8_t* out = strip + p * 64;
    for (std::size_t j = 0; j < kQNR; ++j) {
      std::uint8_t* lane = out + (j / 8) * 32 + (j % 8) * 4;
      if (j < lanes) {
        const float* src = b.ptr + (j0 + j) * b.col_stride;
        for (std::size_t t = 0; t < 4; ++t) {
          const std::size_t kk = p * 4 + t;
          lane[t] = static_cast<std::uint8_t>(
              kk < k ? quantize_clamped(src[kk * b.row_stride], linv[j],
                                        127) +
                           128
                     : 128);
        }
      } else {
        lane[0] = lane[1] = lane[2] = lane[3] = 128;
      }
    }
  }
}

/// Gather one 16-column strip of a conv operand's im2col matrix from its
/// quantized padded images (`bytes`, laid out like cv.img) into the quad
/// layout. Lanes are panel columns (sample, output position); a full
/// strip whose lanes form one contiguous run of an image copies 16 bytes
/// per depth row, any other strip gathers at its per-lane offsets.
/// Padding lanes/k-bytes hold 128.
void pack_b_strip_conv_u8(std::size_t s, std::size_t k, std::size_t kq,
                          std::size_t n, const ConvOperand& cv,
                          const std::uint8_t* bytes, std::uint8_t* dst) {
  std::uint8_t* strip = dst + s * kq * 64;
  const std::size_t j0 = s * kQNR;
  const std::size_t lanes = std::min(kQNR, n - j0);
  std::size_t lane_off[kQNR];
  std::size_t sample = j0 / cv.cols, q = j0 % cv.cols;
  bool run = lanes == kQNR;
  for (std::size_t j = 0; j < lanes; ++j) {
    lane_off[j] = sample * cv.sample_stride +
                  static_cast<std::size_t>(cv.col_off[q]);
    run = run && lane_off[j] == lane_off[0] + j;
    if (++q == cv.cols) {
      q = 0;
      ++sample;
    }
  }
  alignas(16) std::uint8_t rowq[4][kQNR];
  for (std::size_t p = 0; p < kq; ++p) {
    for (std::size_t t = 0; t < 4; ++t) {
      const std::size_t kk = p * 4 + t;
      if (kk >= k) {
        std::memset(rowq[t], 128, kQNR);
        continue;
      }
      const std::uint8_t* src = bytes + cv.row_off[kk];
      if (run) {
        std::memcpy(rowq[t], src + lane_off[0], kQNR);
        continue;
      }
      for (std::size_t j = 0; j < lanes; ++j) rowq[t][j] = src[lane_off[j]];
      for (std::size_t j = lanes; j < kQNR; ++j) rowq[t][j] = 128;
    }
    interleave_quad(rowq, strip + p * 64);
  }
}

#ifdef REMAPD_INT8_X86_DISPATCH
/// AVX2 B-strip packer (contiguous rows). Quantizes each k-row of the strip
/// to 16 bytes (u8 = q + 128, lane j with linv[j]; padding columns
/// quantize the zero fill to 128), then byte-transposes groups of four
/// rows into the 64-byte quad layout — byte-identical output to
/// pack_b_strip_u8.
__attribute__((target("avx2"))) void pack_b_strip_u8_avx2(
    std::size_t s, std::size_t k, std::size_t kq, std::size_t n,
    StridedOperand b, const float* linv, std::uint8_t* dst) {
  std::uint8_t* strip = dst + s * kq * 64;
  const std::size_t j0 = s * kQNR;
  const std::size_t lanes = std::min(kQNR, n - j0);
  const __m256 vinv0 = _mm256_loadu_ps(linv);
  const __m256 vinv1 = _mm256_loadu_ps(linv + 8);
  alignas(16) std::uint8_t rowq[4][kQNR];
  for (std::size_t p = 0; p < kq; ++p) {
    for (std::size_t t = 0; t < 4; ++t) {
      const std::size_t kk = p * 4 + t;
      if (kk >= k) {
        std::memset(rowq[t], 128, kQNR);
        continue;
      }
      const float* src = b.ptr + kk * b.row_stride + j0;
      __m256 f0, f1;
      if (lanes == kQNR) {
        f0 = _mm256_loadu_ps(src);
        f1 = _mm256_loadu_ps(src + 8);
      } else {
        alignas(32) float f[16] = {0};
        std::memcpy(f, src, lanes * sizeof(float));
        f0 = _mm256_load_ps(f);
        f1 = _mm256_load_ps(f + 8);
      }
      _mm_store_si128(reinterpret_cast<__m128i*>(rowq[t]),
                      quantize16_u8_avx2(f0, f1, vinv0, vinv1));
    }
    interleave_quad(rowq, strip + p * 64);
  }
}

/// AVX2 A-strip packer (contiguous rows). Quantizes each row of the 4-row
/// strip to int8 (qmax = kInt8AMax) into a scratch row, accumulates the row
/// sum vectorially, then scatters little-endian 4-byte quads into the
/// panel. Matches the scalar path byte-for-byte (zero padding past k).
__attribute__((target("avx2"))) void pack_a_strip_avx2(
    std::size_t g, std::size_t m, std::size_t k, std::size_t kq,
    StridedOperand a, float inv, std::int32_t* dst, std::int32_t* corr,
    std::uint8_t* rowq) {
  const __m256 vinv = _mm256_set1_ps(inv);
  const __m256 vlim = _mm256_set1_ps(static_cast<float>(kInt8AMax));
  const __m256i vqmax = _mm256_set1_epi32(kInt8AMax);
  std::int32_t* panel = dst + g * kq * kQMR;
  for (std::size_t r = 0; r < kQMR; ++r) {
    const std::size_t i = g * kQMR + r;
    if (i >= m) {
      for (std::size_t p = 0; p < kq; ++p) panel[p * kQMR + r] = 0;
      continue;
    }
    const float* src = a.ptr + i * a.row_stride;
    __m256i vsum = _mm256_setzero_si256();
    std::size_t kk = 0;
    for (; kk + 16 <= k; kk += 16) {
      const __m256i q0 = quantize8_avx2(_mm256_loadu_ps(src + kk), vinv,
                                        vlim, vqmax);
      const __m256i q1 = quantize8_avx2(_mm256_loadu_ps(src + kk + 8), vinv,
                                        vlim, vqmax);
      vsum = _mm256_add_epi32(vsum, _mm256_add_epi32(q0, q1));
      const __m256i w =
          _mm256_permute4x64_epi64(_mm256_packs_epi32(q0, q1), 0xD8);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(rowq + kk),
                       _mm_packs_epi16(_mm256_castsi256_si128(w),
                                       _mm256_extracti128_si256(w, 1)));
    }
    if (kk < k) {
      alignas(32) float f[16] = {0};
      std::memcpy(f, src + kk, (k - kk) * sizeof(float));
      const __m256i q0 = quantize8_avx2(_mm256_load_ps(f), vinv, vlim, vqmax);
      const __m256i q1 =
          quantize8_avx2(_mm256_load_ps(f + 8), vinv, vlim, vqmax);
      vsum = _mm256_add_epi32(vsum, _mm256_add_epi32(q0, q1));
      const __m256i w =
          _mm256_permute4x64_epi64(_mm256_packs_epi32(q0, q1), 0xD8);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(rowq + kk),
                       _mm_packs_epi16(_mm256_castsi256_si128(w),
                                       _mm256_extracti128_si256(w, 1)));
    }
    alignas(32) std::int32_t sl[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(sl), vsum);
    std::int32_t rowsum = 0;
    for (int l = 0; l < 8; ++l) rowsum += sl[l];
    corr[i] = 128 * rowsum;
    for (std::size_t p = 0; p < kq; ++p) {
      std::uint32_t quad;
      std::memcpy(&quad, rowq + p * 4, 4);
      panel[p * kQMR + r] = static_cast<std::int32_t>(quad);
    }
  }
}
#endif

}  // namespace

void Int8APack::pack(std::size_t m, std::size_t k, StridedOperand a,
                     float a_scale) {
  if (!(a_scale > 0.0f))
    throw std::invalid_argument("Int8APack::pack: a_scale must be > 0");
  m_ = m;
  k_ = k;
  kq_ = quad_count(k);
  a_scale_ = a_scale;
  const float inv = 1.0f / a_scale;
  const std::size_t nstrips = (m + kQMR - 1) / kQMR;
  panels_.resize(nstrips * kq_ * kQMR);
  corr_.assign(m, 0);
  std::int32_t* dst = panels_.data();
  std::int32_t* corr = corr_.data();
  parallel_for(0, nstrips, 1, [&](std::size_t g0, std::size_t g1) {
#ifdef REMAPD_INT8_X86_DISPATCH
    if (int8_micro_choice().vector_pack && a.col_stride == 1) {
      std::uint8_t* rowq =
          t_int8_apack_arena.ensure(((k + 15) / 16) * 16);
      for (std::size_t g = g0; g < g1; ++g)
        pack_a_strip_avx2(g, m, k, kq_, a, inv, dst, corr, rowq);
      return;
    }
#endif
    for (std::size_t g = g0; g < g1; ++g) {
      for (std::size_t p = 0; p < kq_; ++p) {
        for (std::size_t r = 0; r < kQMR; ++r) {
          const std::size_t i = g * kQMR + r;
          std::uint32_t quad = 0;
          if (i < m) {
            const float* src = a.ptr + i * a.row_stride;
            std::int32_t rowsum = 0;
            for (std::size_t t = 0; t < 4; ++t) {
              const std::size_t kk = p * 4 + t;
              int q = 0;
              if (kk < k)
                q = quantize_clamped(src[kk * a.col_stride], inv, kInt8AMax);
              rowsum += q;
              quad |= static_cast<std::uint32_t>(
                          static_cast<std::uint8_t>(static_cast<std::int8_t>(q)))
                      << (8 * t);
            }
            corr[i] += 128 * rowsum;
          }
          dst[g * kq_ * kQMR + p * kQMR + r] =
              static_cast<std::int32_t>(quad);
        }
      }
    }
  });
}

namespace {

// Cached telemetry handles, registered once (as gemm() caches its own).
struct Int8GemmTelemetry {
  telemetry::Counter& calls;
  telemetry::Histogram& ns;
};

Int8GemmTelemetry& int8_gemm_telemetry() {
  auto& reg = telemetry::Registry::instance();
  static Int8GemmTelemetry t{reg.counter("tensor.gemm_int8.calls"),
                             reg.histogram("tensor.gemm_int8.ns")};
  return t;
}

/// Running NaN-sticky max |x|: a NaN anywhere yields NaN, an inf yields
/// inf. (A plain `!(v <= max)` update is NOT sticky: once the max is NaN
/// the next finite element compares false and overwrites it.) max() is
/// exact and order-independent, so every traversal of the same values,
/// maxabs_scan_avx2 included, returns the same bits.
struct MaxAbs {
  float max = 0.0f;
  bool nan = false;
  void add(float x) {
    const float v = std::fabs(x);
    if (v != v) nan = true;
    else if (v > max) max = v;
  }
  [[nodiscard]] float value() const {
    return nan ? std::numeric_limits<float>::quiet_NaN() : max;
  }
};

/// Max |b| over a k x n operand.
float operand_maxabs(std::size_t k, std::size_t n, StridedOperand b,
                     bool vec) {
#ifdef REMAPD_INT8_X86_DISPATCH
  if (vec) return maxabs_scan_avx2(k, n, b);
#else
  (void)vec;
#endif
  MaxAbs m;
  for (std::size_t kk = 0; kk < k; ++kk)
    for (std::size_t j = 0; j < n; ++j)
      m.add(b.ptr[kk * b.row_stride + j * b.col_stride]);
  return m.value();
}

/// Max |x| over the k x cols im2col matrix of one image, read through
/// the conv operand's offsets: exactly the positions its panel holds.
float conv_maxabs(std::size_t k, const ConvOperand& cv, const float* img) {
  MaxAbs m;
  for (std::size_t r = 0; r < k; ++r)
    for (std::size_t q = 0; q < cv.cols; ++q)
      m.add(img[cv.row_off[r] + cv.col_off[q]]);
  return m.value();
}

/// Per-segment activation scales of one multiply: inv[t] quantizes
/// segment t, scale[t] dequantizes it. Thread-local scratch.
struct SegmentScales {
  float* inv;
  float* scale;
  std::size_t width;  ///< columns per segment

  SegmentScales(std::size_t segments, std::size_t seg_width)
      : width(seg_width) {
    if (t_int8_seg_scales.size() < 2 * segments)
      t_int8_seg_scales.resize(2 * segments);
    inv = t_int8_seg_scales.data();
    scale = inv + segments;
  }

  /// Segment t's dynamic symmetric scale from its max |b|; false (fp32
  /// fallback) if that is not finite, so divergence is never silently
  /// clamped away by quantization.
  bool set(std::size_t t, float maxabs, float a_scale) {
    if (!std::isfinite(maxabs)) return false;
    inv[t] = maxabs > 0.0f ? 127.0f / maxabs : 0.0f;
    const float b_scale = maxabs > 0.0f ? maxabs / 127.0f : 0.0f;
    scale[t] = a_scale * b_scale;
    return true;
  }

  /// Per-lane copy of `per_segment` for the 16 lanes of the strip at
  /// column j0 (cols of them real; padding lanes get 0).
  void lanes(const float* per_segment, std::size_t j0, std::size_t cols,
             float* out) const {
    for (std::size_t j = 0; j < kQNR; ++j)
      out[j] = j < cols ? per_segment[(j0 + j) / width] : 0.0f;
  }
};

/// C = dequant(packed A x packed B strips): the exact int32 tile sums of
/// each strip, minus the row's bias correction, times the lane's segment
/// scale.
void compute_int8(std::size_t m, std::size_t kq, std::size_t n,
                  const std::int32_t* panels, const std::int32_t* corr,
                  const std::uint8_t* bpack, const SegmentScales& sc,
                  float* c, std::size_t ldc) {
  const Int8MicroChoice& choice = int8_micro_choice();
  const Int8MicroFn micro = choice.fn;
  const bool vec_dequant = choice.vector_pack;
  const std::size_t nstrips = b_strips(n);
  parallel_for(0, m, kQMC, [&](std::size_t r0, std::size_t r1) {
    alignas(32) std::int32_t tile[kQMR * kQNR];
    alignas(32) float lscale[kQNR];
    for (std::size_t s = 0; s < nstrips; ++s) {
      const std::size_t j0 = s * kQNR;
      const std::size_t cols = std::min(kQNR, n - j0);
      const std::uint8_t* bp = bpack + s * kq * 64;
      sc.lanes(sc.scale, j0, cols, lscale);
      for (std::size_t ir = r0; ir < r1; ir += kQMR) {
        const std::size_t rows = std::min(kQMR, r1 - ir);
        micro(kq, panels + (ir / kQMR) * kq * kQMR, bp, tile);
        for (std::size_t r = 0; r < rows; ++r) {
          const std::size_t i = ir + r;
          float* crow = c + i * ldc + j0;
          const std::int32_t ci = corr[i];
          const std::int32_t* trow = tile + r * kQNR;
#ifdef REMAPD_INT8_X86_DISPATCH
          if (vec_dequant) {
            dequant_row_avx2(trow, ci, lscale, crow, cols);
            continue;
          }
#else
          (void)vec_dequant;
#endif
          for (std::size_t j = 0; j < cols; ++j)
            crow[j] = static_cast<float>(trow[j] - ci) * lscale[j];
        }
      }
    }
  });
}

}  // namespace

bool Int8APack::multiply(std::size_t n, StridedOperand b, float* c,
                         std::size_t ldc, std::size_t segment) const {
  Int8GemmTelemetry& telem = int8_gemm_telemetry();
  telemetry::KernelTimer timer(telem.calls, telem.ns);
  if (!packed())
    throw std::logic_error("Int8APack::multiply before pack()");
  if (n == 0) return true;

  const std::size_t width = segment == 0 ? n : std::min(segment, n);
  const std::size_t segments = (n + width - 1) / width;
  SegmentScales sc(segments, width);
  const bool vec_pack =
      int8_micro_choice().vector_pack && b.col_stride == 1;
  for (std::size_t t = 0; t < segments; ++t) {
    const std::size_t j0 = t * width;
    const StridedOperand bt{b.ptr + j0 * b.col_stride, b.row_stride,
                            b.col_stride};
    if (!sc.set(t, operand_maxabs(k_, std::min(width, n - j0), bt, vec_pack),
                a_scale_))
      return false;
  }

  const std::size_t nstrips = b_strips(n);
  std::uint8_t* bpack = t_int8_bpack_arena.ensure(nstrips * kq_ * 64);
  parallel_for(0, nstrips, 1, [&](std::size_t s0, std::size_t s1) {
    alignas(32) float linv[kQNR];
    for (std::size_t s = s0; s < s1; ++s) {
      sc.lanes(sc.inv, s * kQNR, std::min(kQNR, n - s * kQNR), linv);
#ifdef REMAPD_INT8_X86_DISPATCH
      if (vec_pack) {
        pack_b_strip_u8_avx2(s, k_, kq_, n, b, linv, bpack);
        continue;
      }
#endif
      pack_b_strip_u8(s, k_, kq_, n, b, linv, bpack);
    }
  });
  compute_int8(m_, kq_, n, panels_.data(), corr_.data(), bpack, sc, c, ldc);
  return true;
}

bool Int8APack::multiply(std::size_t n, const Int8ConvOperand& b, float* c,
                         std::size_t ldc) const {
  Int8GemmTelemetry& telem = int8_gemm_telemetry();
  telemetry::KernelTimer timer(telem.calls, telem.ns);
  if (!packed())
    throw std::logic_error("Int8APack::multiply before pack()");
  const ConvOperand& cv = b.conv;
  if (cv.transposed || cv.cols == 0 || n % cv.cols != 0)
    throw std::invalid_argument(
        "Int8APack::multiply: conv operand must be untransposed, whole "
        "samples");
  if (n == 0) return true;

  // One scale per sample, over exactly what its im2col panel reads. A
  // geometry that reads every pixel scans the whole padded image (its
  // pads are zeros, which never raise a max of |x|); any other one scans
  // through the offsets.
  const std::size_t samples = n / cv.cols;
  const std::size_t stride = cv.sample_stride;
  SegmentScales sc(samples, cv.cols);
  const bool vec = int8_micro_choice().vector_pack;
  for (std::size_t i = 0; i < samples; ++i) {
    const float* img = cv.img + i * stride;
    const float maxabs = b.reads_every_pixel
                             ? operand_maxabs(1, stride,
                                              StridedOperand{img, 0, 1}, vec)
                             : conv_maxabs(k_, cv, img);
    if (!sc.set(i, maxabs, a_scale_)) return false;
  }

  // Quantize each padded image once; the strips then gather bytes.
  parallel_for(0, samples, 1, [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      const float* img = cv.img + i * stride;
      std::uint8_t* out = b.bytes + i * stride;
#ifdef REMAPD_INT8_X86_DISPATCH
      if (vec) {
        quantize_bytes_avx2(img, stride, sc.inv[i], out);
        continue;
      }
#endif
      for (std::size_t e = 0; e < stride; ++e)
        out[e] = static_cast<std::uint8_t>(
            quantize_clamped(img[e], sc.inv[i], 127) + 128);
    }
  });

  const std::size_t nstrips = b_strips(n);
  std::uint8_t* bpack = t_int8_bpack_arena.ensure(nstrips * kq_ * 64);
  parallel_for(0, nstrips, 1, [&](std::size_t s0, std::size_t s1) {
    for (std::size_t s = s0; s < s1; ++s)
      pack_b_strip_conv_u8(s, k_, kq_, n, cv, b.bytes, bpack);
  });
  compute_int8(m_, kq_, n, panels_.data(), corr_.data(), bpack, sc, c, ldc);
  return true;
}

const char* int8_kernel_name() { return int8_micro_choice().name; }

namespace int8_testing {

std::vector<std::string> supported_kernels() {
  std::vector<std::string> names;
  for (const Int8MicroChoice& v : kInt8Variants)
    if (cpu_runs(v)) names.emplace_back(v.name);
  return names;
}

std::string force_kernel(const std::string& name) {
  for (const Int8MicroChoice& v : kInt8Variants) {
    if (name != v.name) continue;
    if (!cpu_runs(v))
      throw std::invalid_argument("int8 kernel not runnable here: " + name);
    return int8_choice_slot().exchange(&v, std::memory_order_relaxed)->name;
  }
  throw std::invalid_argument("unknown int8 kernel: " + name);
}

}  // namespace int8_testing

}  // namespace remapd
