// General matrix multiply: BLAS sgemm semantics over the packed SIMD
// micro-kernel layer (tensor/gemm_kernel.hpp). Transposed operands are
// absorbed by the packing layer (no transpose copies); alpha == 0 / k == 0
// degenerate calls only apply the beta scale and record zero flops. The
// per-C-row floating-point accumulation order is a pure function of the
// problem shape, so results are bitwise identical at any REMAPD_THREADS.
#pragma once

#include <cstddef>

#include "tensor/tensor.hpp"

namespace remapd {

struct ConvOperand;

/// C = alpha * op(A) * op(B) + beta * C, row-major.
/// A is MxK (after optional transpose), B is KxN, C is MxN.
void gemm(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
          std::size_t k, float alpha, const float* a, std::size_t lda,
          const float* b, std::size_t ldb, float beta, float* c,
          std::size_t ldc);

/// The same product with B (K x N) read in place from padded images
/// through a ConvOperand (tensor/gemm_kernel.hpp): the conv dW product
/// without an im2col panel. Records the same tensor.gemm.* telemetry.
void gemm(bool trans_a, std::size_t m, std::size_t n, std::size_t k,
          float alpha, const float* a, std::size_t lda, const ConvOperand& b,
          float beta, float* c, std::size_t ldc);

/// Convenience wrapper on rank-2 tensors: returns A(MxK) * B(KxN).
Tensor matmul(const Tensor& a, const Tensor& b);

/// Returns op(A) * op(B) with optional transposes.
Tensor matmul(const Tensor& a, bool trans_a, const Tensor& b, bool trans_b);

}  // namespace remapd
