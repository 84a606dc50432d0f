// im2col / col2im lowering for convolution. Conv2d forward becomes a GEMM of
// the (C_out x C_in*KH*KW) filter matrix against the im2col buffer — the same
// lowering an RCS performs when a convolution is unrolled onto crossbars.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

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
  /// Height and width of the zero-padded image: H+2p, W+2p.
  [[nodiscard]] std::size_t padded_h() const { return height + 2 * pad; }
  [[nodiscard]] std::size_t padded_w() const { return width + 2 * pad; }
  /// Floats in one zero-padded image: C*(H+2p)*(W+2p).
  [[nodiscard]] std::size_t padded_size() const {
    return channels * padded_h() * padded_w();
  }

  bool operator==(const ConvGeom&) const = default;
};

/// Offset tables that read the im2col matrix straight out of a zero-padded
/// image (see ConvOperand in tensor/gemm_kernel.hpp): element (r, q) is
/// padded[row_off[r] + col_off[q]], with row_off over the col_rows() rows
/// (c, kh, kw) and col_off over the col_cols() output positions (oy, ox).
/// Storage is grow-only, and build() skips a geometry it already holds.
struct ConvOffsets {
  ConvGeom geom{};
  std::vector<std::int32_t> row_off, col_off;

  /// Rebuild for `g`. Returns true iff the storage had to grow (a heap
  /// allocation). Throws if a padded image exceeds int32 offsets.
  bool build(const ConvGeom& g);
};

/// Copy one image (C,H,W) into `padded` (C,H+2p,W+2p) with zero borders.
void pad_image(const float* img, const ConvGeom& g, float* padded);

/// Copy the interior of a padded image back out: the inverse of pad_image.
void crop_image(const float* padded, const ConvGeom& g, float* img);

/// Expand one image (C,H,W row-major) into `col`, a col_rows x col_cols
/// matrix whose rows are `ld` floats apart. `ld` = 0 means col_cols() (a
/// dense matrix); a larger `ld` lets several samples share one panel, each
/// in its own column range (the sample-blocked conv layout).
void im2col(const float* img, const ConvGeom& g, float* col,
            std::size_t ld = 0);

/// Inverse scatter-add: accumulate `col` (rows `ld` floats apart, 0 =
/// col_cols()) back into `img` (must be zeroed by the caller when a fresh
/// gradient is wanted). The bounds-checked reference for
/// col2im_padded.
void col2im(const float* col, const ConvGeom& g, float* img,
            std::size_t ld = 0);

/// col2im into a zero-padded image through the offsets `o` (built for
/// `o.geom`): no bounds checks, the adds that land in the border are
/// simply never read back. Every interior element receives the same adds
/// in the same (c, kh, kw) order as col2im, so after crop_image the result
/// is bitwise col2im's.
void col2im_padded(const float* col, const ConvOffsets& o, float* padded,
                   std::size_t ld = 0);

}  // namespace remapd
