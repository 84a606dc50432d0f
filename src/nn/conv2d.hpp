// 2-D convolution lowered to GEMM via im2col — mirroring how an RCS unrolls
// a convolution onto crossbar MVMs. Forward uses the forward FaultView's
// effective weights; input-gradient propagation uses the backward
// FaultView's (the physically distinct W^T crossbars).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "nn/layer.hpp"
#include "tensor/gemm_int8.hpp"
#include "tensor/gemm_kernel.hpp"
#include "tensor/im2col.hpp"

namespace remapd {

/// Grow-only float buffer for conv scratch panels. ensure() reallocates
/// only when a larger size is asked for, and counts each growth in
/// conv_scratch_allocations().
struct ConvScratch {
  std::vector<float> buf;
  float* ensure(std::size_t n);
};

/// Process-wide count of conv scratch growths (heap allocations): the
/// thread-local block panels, padded images, offset tables and dW/db
/// partials, plus each layer's padded training input and offset tables.
/// Repeated training steps of one shape leave it flat.
std::uint64_t conv_scratch_allocations();

class Conv2d final : public Layer, public FaultableLayer {
 public:
  /// Square kernels only (all the model zoo needs). `pad` is symmetric.
  Conv2d(std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel, std::size_t stride, std::size_t pad, Rng& rng,
         std::string tag = "conv");

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& dy) override;
  std::vector<Param*> params() override { return {&weight_, &bias_}; }
  [[nodiscard]] std::string name() const override { return tag_; }

  // FaultableLayer
  [[nodiscard]] std::size_t weight_rows() const override { return out_ch_; }
  [[nodiscard]] std::size_t weight_cols() const override {
    return in_ch_ * kernel_ * kernel_;
  }
  void set_fault_views(FaultView forward_view,
                       FaultView backward_view) override;
  void clear_fault_views() override;
  Param& weight_param() override { return weight_; }

  [[nodiscard]] std::size_t in_channels() const { return in_ch_; }
  [[nodiscard]] std::size_t out_channels() const { return out_ch_; }
  [[nodiscard]] std::size_t kernel() const { return kernel_; }

 private:
  /// Weights with the given view's clamps applied (or the digital weights
  /// when the view is empty).
  const Tensor& effective_weights(const std::optional<FaultView>& view,
                                  Tensor& cache) const;

  std::size_t in_ch_, out_ch_, kernel_, stride_, pad_;
  Param weight_;  ///< rank-2: out_ch x (in_ch*k*k)
  Param bias_;    ///< rank-1: out_ch
  std::string tag_;

  std::optional<FaultView> fwd_view_, bwd_view_;
  mutable Tensor fwd_eff_, bwd_eff_;  // clamped-weight caches

  // Fused-path weight panels: the effective-weight (forward) and
  // effective-weight-transpose (backward) matrices are packed ONCE per
  // layer call and reused across every sample block's GEMM. Members are
  // only touched on the training path — eval forwards may run
  // concurrently, so they pack into per-thread panels instead (mirroring
  // the fwd_eff_ cache rule).
  GemmAPack fwd_pack_, bwd_pack_;
  // Int8 fast path (taken when the FaultView selects it): the effective
  // weights are exact small integers on the cell level grid, so the MVM
  // runs as an exact int32 GEMM with one fp32 dequantization multiply.
  // Same member-vs-per-thread rule as the fp32 panels.
  Int8APack fwd_i8_, bwd_i8_;

  // Saved for backward: the batch's input, zero-padded, one
  // ConvGeom::padded_size() image per sample, and the offset tables that
  // read its im2col matrix in place (the fp32 forward and dW never
  // materialize the panel; DESIGN §13, "Implicit-GEMM convolution").
  ConvScratch last_padded_;
  ConvOffsets offsets_;
  ConvGeom last_geom_{};
  std::size_t last_batch_ = 0;
  std::size_t last_block_ = 1;  ///< forward samples per block, reused by dX
};

}  // namespace remapd
