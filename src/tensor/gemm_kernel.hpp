// Packed, cache-blocked GEMM micro-kernel layer.
//
// The compute core is a classic three-level blocking (BLIS-style):
//
//   for jc in N step kNC:                 // B panel column block
//     for pc in K step kKC:               // depth block (L2-resident panels)
//       pack B[pc:pc+kc, jc:jc+nc] into kNR-wide strips      (shared)
//       parallel_for row blocks of kMC rows:                  (disjoint C rows)
//         pack alpha*op(A)[rows, pc:pc+kc] into kMR strips    (per worker)
//         for jr strips: for ir strips:
//           micro-kernel: kMR x kNR register tile over the packed strips
//
// The micro-kernel accumulates a full kMR x kNR tile in registers over the
// kc depth chunk and then updates C itself: the first chunk of a beta == 0
// product stores 0.0f + acc (never reading C), every other chunk adds
// C += acc. Only row/column tails go through an aligned scratch tile and a
// merge; only a general beta (not 0 or 1) pre-scales C. Per C element the
// floating-point order is therefore
//
//   C(i,j) = ((beta*C(i,j) + chunk_0) + chunk_1) + ... ,
//   chunk_t = sum over k in [t*kKC, (t+1)*kKC) in ascending-k order,
//   beta*C(i,j) read as +0 when beta == 0,
//
// which depends only on (m, n, k, beta) — never on the thread count, the
// row partition, or which strip a row lands in (every element owns a
// private accumulator lane). That preserves the PR-3 contract: any
// REMAPD_THREADS value is bitwise identical, checkpoints resume exactly.
//
// Transposed operands are handled by the packing layer (an operand is a
// pointer plus row/col strides), so NT/TN/TT never materialize a
// transposed copy. A convolution's im2col matrix is a B operand of its
// own (ConvOperand): the packer gathers it straight from zero-padded
// images through offset tables, so the conv path writes no im2col panel.
// Scratch panels live in grow-only thread-local arenas; steady-state
// calls perform no heap allocation (see scratch_allocations()).
//
// Two micro-kernel implementations sit behind one function pointer chosen
// at process start: an AVX2+FMA intrinsics kernel (x86-64, runtime
// __builtin_cpu_supports dispatch, no special build flags needed) and a
// portable `#pragma omp simd` kernel. Both fuse each multiply-add (one
// rounding, ascending k), so they write the same bytes; tests force each
// variant through tensor/gemm_testing.hpp. The choice is per-process, so
// it cannot vary with thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace remapd {

// Register tile and cache-block geometry. kMR x kNR is the micro-tile
// (6 rows x 16 columns = 12 YMM accumulators + 2 B vectors + 1 A broadcast
// on AVX2). kMC/kKC size the packed A block (~48 KiB) and kNC the packed B
// panel for L2 residency.
inline constexpr std::size_t kMR = 6;
inline constexpr std::size_t kNR = 16;
inline constexpr std::size_t kMC = 48;   // row-partition grain, multiple of kMR
inline constexpr std::size_t kKC = 256;  // depth chunk
inline constexpr std::size_t kNC = 1024; // column panel, multiple of kNR

/// A matrix operand as the packing layer sees it: element (i, j) of op(X)
/// lives at ptr[i * row_stride + j * col_stride]. A plain row-major matrix
/// is {ptr, ld, 1}; its transpose is {ptr, 1, ld} — no copy needed.
struct StridedOperand {
  const float* ptr;
  std::size_t row_stride;
  std::size_t col_stride;
};

/// The im2col matrix of a block of samples, read in place (implicit GEMM).
/// Untransposed, op(B) is the rows x (samples * cols) panel whose column
/// j = s * cols + q holds sample s at output position q; element (r, j)
/// is img[s * sample_stride + row_off[r] + col_off[q]]. Transposed (the
/// conv dW product of one sample), op(B) is cols x rows with element
/// (q, r) = img[row_off[r] + col_off[q]]. The images are zero-padded
/// (see ConvOffsets in tensor/im2col.hpp), so every offset is in bounds
/// and the pads read as the +0.0f im2col writes: the packed strips, and
/// so the results, are bitwise those of the materialized panel.
struct ConvOperand {
  const float* img;             ///< first sample's padded image
  std::size_t sample_stride;    ///< floats between consecutive samples
  const std::int32_t* row_off;  ///< per panel row (c, kh, kw)
  const std::int32_t* col_off;  ///< per output position (oy, ox)
  std::size_t cols;             ///< output positions per sample (OH*OW)
  bool transposed = false;
};

/// C = alpha * op(A) * op(B) + beta * C over strided operands, C row-major
/// m x n with leading dimension ldc. beta == 0 never reads C (NaN/garbage
/// in C is overwritten, BLAS semantics). beta == 0 and 1 cost no pass over
/// C (the micro-kernel stores or adds); a general beta is folded into the
/// row-partitioned region: each block scales its own C rows right before
/// accumulating its first depth chunk, so no serial pre-pass runs.
/// Requires alpha != 0 and m, n, k > 0 (the gemm() wrapper handles the
/// degenerate cases).
void gemm_packed(std::size_t m, std::size_t n, std::size_t k, float alpha,
                 StridedOperand a, StridedOperand b, float beta, float* c,
                 std::size_t ldc);
/// The same product with op(B) read through a ConvOperand.
void gemm_packed(std::size_t m, std::size_t n, std::size_t k, float alpha,
                 StridedOperand a, const ConvOperand& b, float beta, float* c,
                 std::size_t ldc);

/// Reusable packed-A panels for the fused convolution path: pack the
/// (effective-weight) matrix once per layer call, then run many
/// C_i = packed_A * B_i multiplies against per-sample B operands. The
/// packed panels are immutable after pack(), so multiply() is const and
/// safe to call concurrently from the per-sample parallel loop (per-call
/// scratch is thread-local). multiply() performs the exact arithmetic of
/// gemm_packed with the same shapes — fused and unfused paths agree
/// bitwise.
class GemmAPack {
 public:
  /// Pack alpha * op(A) (m x k). Reuses the panel buffer's capacity, so
  /// repeated packs of the same geometry do not allocate.
  void pack(std::size_t m, std::size_t k, float alpha, StridedOperand a);

  /// C = packed_A * B + beta * C; B is k x n row-major with leading
  /// dimension ldb. Requires pack() first.
  void multiply(std::size_t n, const float* b, std::size_t ldb, float beta,
                float* c, std::size_t ldc) const;
  /// The same product with op(B) (k x n) read through a ConvOperand.
  void multiply(std::size_t n, const ConvOperand& b, float beta, float* c,
                std::size_t ldc) const;

  [[nodiscard]] std::size_t rows() const { return m_; }
  [[nodiscard]] std::size_t depth() const { return k_; }

 private:
  std::size_t m_ = 0, k_ = 0;
  std::vector<float> panels_;  // [pc chunk][kMR strip][p * kMR + r]
};

/// Process-wide count of scratch-arena growths (heap allocations) made by
/// the packing layer. Steady-state GEMM calls — including NT/TN, which
/// previously materialized fresh transpose buffers per call — must leave
/// this flat; tests assert on it.
std::uint64_t gemm_scratch_allocations();

/// Name of the micro-kernel implementation selected at startup ("avx2" or
/// "portable") — surfaced in bench JSON records so a perf trajectory is
/// interpretable across machines.
const char* gemm_kernel_name();

}  // namespace remapd
