// Test-side reference for the conv lowering's adjoint: a bounds-checked
// col2im over the unpadded image. src/ scatters through col2im_padded
// instead; the tests hold it (and Conv2d's dX) to this reference bitwise.
#pragma once

#include <cstddef>

#include "tensor/im2col.hpp"

namespace remapd {

/// Inverse scatter-add of im2col: accumulate `col` (rows `ld` floats
/// apart, 0 = col_cols()) back into `img` (zeroed by the caller when a
/// fresh gradient is wanted), in (c, kh, kw) row order.
inline void col2im(const float* col, const ConvGeom& g, float* img,
                   std::size_t ld = 0) {
  const std::size_t oh = g.out_h(), ow = g.out_w();
  if (ld == 0) ld = oh * ow;
  std::size_t row = 0;
  for (std::size_t c = 0; c < g.channels; ++c) {
    for (std::size_t kh = 0; kh < g.kernel_h; ++kh) {
      for (std::size_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        const float* src = col + row * ld;
        for (std::size_t y = 0; y < oh; ++y) {
          const long iy = static_cast<long>(y * g.stride + kh) -
                          static_cast<long>(g.pad);
          if (iy < 0 || iy >= static_cast<long>(g.height)) continue;
          float* dst =
              img + (c * g.height + static_cast<std::size_t>(iy)) * g.width;
          for (std::size_t x = 0; x < ow; ++x) {
            const long ix = static_cast<long>(x * g.stride + kw) -
                            static_cast<long>(g.pad);
            if (ix < 0 || ix >= static_cast<long>(g.width)) continue;
            dst[static_cast<std::size_t>(ix)] += src[y * ow + x];
          }
        }
      }
    }
  }
}

}  // namespace remapd
