// im2col / col2im lowering for convolution. Conv2d forward becomes a GEMM of
// the (C_out x C_in*KH*KW) filter matrix against the im2col buffer — the same
// lowering an RCS performs when a convolution is unrolled onto crossbars.
#pragma once

#include <cstddef>

namespace remapd {

/// Parameters of a 2-D convolution lowering.
struct ConvGeom {
  std::size_t channels, height, width;   // input
  std::size_t kernel_h, kernel_w;
  std::size_t stride, pad;

  [[nodiscard]] std::size_t out_h() const {
    return (height + 2 * pad - kernel_h) / stride + 1;
  }
  [[nodiscard]] std::size_t out_w() const {
    return (width + 2 * pad - kernel_w) / stride + 1;
  }
  /// Rows of the im2col matrix: C*KH*KW.
  [[nodiscard]] std::size_t col_rows() const {
    return channels * kernel_h * kernel_w;
  }
  /// Columns of the im2col matrix: OH*OW.
  [[nodiscard]] std::size_t col_cols() const { return out_h() * out_w(); }
};

/// Expand one image (C,H,W row-major) into `col`, a col_rows x col_cols
/// matrix whose rows are `ld` floats apart. `ld` = 0 means col_cols() (a
/// dense matrix); a larger `ld` lets several samples share one panel, each
/// in its own column range (the sample-blocked conv layout).
void im2col(const float* img, const ConvGeom& g, float* col,
            std::size_t ld = 0);

/// Inverse scatter-add: accumulate `col` (rows `ld` floats apart, 0 =
/// col_cols()) back into `img` (must be zeroed by the caller when a fresh
/// gradient is wanted).
void col2im(const float* col, const ConvGeom& g, float* img,
            std::size_t ld = 0);

}  // namespace remapd
