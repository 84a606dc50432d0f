#include "tensor/gemm.hpp"

#include <stdexcept>

#include "telemetry/telemetry.hpp"
#include "tensor/gemm_kernel.hpp"
#include "util/parallel.hpp"

namespace remapd {
namespace {

// Cached telemetry handles: registered once, updated only when telemetry is
// enabled (KernelTimer / enabled() gate the hot path). The function-local
// static makes the first (possibly concurrent) initialization race-free;
// the handles themselves are relaxed atomics.
struct GemmTelemetry {
  telemetry::Counter& calls;
  telemetry::Counter& flops;
  telemetry::Histogram& ns;
};

GemmTelemetry& gemm_telemetry() {
  auto& reg = telemetry::Registry::instance();
  static GemmTelemetry t{reg.counter("tensor.gemm.calls"),
                         reg.counter("tensor.gemm.flops"),
                         reg.histogram("tensor.gemm.ns")};
  return t;
}

/// Shared body of both gemm() entry points; `b` is op(B), K x N.
template <class BOperand>
void gemm_impl(bool trans_a, std::size_t m, std::size_t n, std::size_t k,
               float alpha, const float* a, std::size_t lda,
               const BOperand& b, float beta, float* c, std::size_t ldc) {
  GemmTelemetry& telem = gemm_telemetry();
  telemetry::KernelTimer timer(telem.calls, telem.ns);

  if (m == 0 || n == 0) return;
  if (alpha == 0.0f || k == 0) {
    // No products are issued — only the beta scale/clear runs (and no
    // flops are recorded: telemetry counts multiplies actually performed,
    // so degenerate calls cannot inflate GFLOP/s).
    parallel_for(0, m, kMC, [&](std::size_t r0, std::size_t r1) {
      for (std::size_t i = r0; i < r1; ++i) {
        float* crow = c + i * ldc;
        if (beta == 0.0f) {
          for (std::size_t j = 0; j < n; ++j) crow[j] = 0.0f;
        } else if (beta != 1.0f) {
          for (std::size_t j = 0; j < n; ++j) crow[j] *= beta;
        }
      }
    });
    return;
  }
  if (telemetry::enabled()) telem.flops.add(2ull * m * n * k);

  // Transposes are absorbed by the packing layer as operand strides — the
  // NT/TN/TT paths never materialize a transposed copy.
  const StridedOperand opa =
      trans_a ? StridedOperand{a, 1, lda} : StridedOperand{a, lda, 1};
  gemm_packed(m, n, k, alpha, opa, b, beta, c, ldc);
}

}  // namespace

void gemm(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
          std::size_t k, float alpha, const float* a, std::size_t lda,
          const float* b, std::size_t ldb, float beta, float* c,
          std::size_t ldc) {
  gemm_impl(trans_a, m, n, k, alpha, a, lda,
            trans_b ? StridedOperand{b, 1, ldb} : StridedOperand{b, ldb, 1},
            beta, c, ldc);
}

void gemm(bool trans_a, std::size_t m, std::size_t n, std::size_t k,
          float alpha, const float* a, std::size_t lda, const ConvOperand& b,
          float beta, float* c, std::size_t ldc) {
  gemm_impl(trans_a, m, n, k, alpha, a, lda, b, beta, c, ldc);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  return matmul(a, false, b, false);
}

Tensor matmul(const Tensor& a, bool trans_a, const Tensor& b, bool trans_b) {
  if (a.shape().rank() != 2 || b.shape().rank() != 2)
    throw std::invalid_argument("matmul: rank must be 2");
  const std::size_t m = trans_a ? a.shape()[1] : a.shape()[0];
  const std::size_t ka = trans_a ? a.shape()[0] : a.shape()[1];
  const std::size_t kb = trans_b ? b.shape()[1] : b.shape()[0];
  const std::size_t n = trans_b ? b.shape()[0] : b.shape()[1];
  if (ka != kb) throw std::invalid_argument("matmul: inner dim mismatch");
  Tensor c(Shape{m, n});
  gemm(trans_a, trans_b, m, n, ka, 1.0f, a.data(), a.shape()[1], b.data(),
       b.shape()[1], 0.0f, c.data(), n);
  return c;
}

}  // namespace remapd
