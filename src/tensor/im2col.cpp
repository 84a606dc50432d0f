#include "tensor/im2col.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "telemetry/telemetry.hpp"

namespace remapd {
namespace {

struct LoweringTelemetry {
  telemetry::Counter& calls;
  telemetry::Histogram& ns;
};

LoweringTelemetry& im2col_telemetry() {
  auto& reg = telemetry::Registry::instance();
  static LoweringTelemetry t{reg.counter("tensor.im2col.calls"),
                             reg.histogram("tensor.im2col.ns")};
  return t;
}

LoweringTelemetry& col2im_telemetry() {
  auto& reg = telemetry::Registry::instance();
  static LoweringTelemetry t{reg.counter("tensor.col2im.calls"),
                             reg.histogram("tensor.col2im.ns")};
  return t;
}

}  // namespace

void im2col(const float* img, const ConvGeom& g, float* col,
            std::size_t ld) {
  LoweringTelemetry& telem = im2col_telemetry();
  telemetry::KernelTimer timer(telem.calls, telem.ns);
  const std::size_t oh = g.out_h(), ow = g.out_w();
  if (ld == 0) ld = oh * ow;
  std::size_t row = 0;
  for (std::size_t c = 0; c < g.channels; ++c) {
    for (std::size_t kh = 0; kh < g.kernel_h; ++kh) {
      for (std::size_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        float* dst = col + row * ld;
        for (std::size_t y = 0; y < oh; ++y) {
          // Input row for this output row; pad handled by bounds check.
          const long iy = static_cast<long>(y * g.stride + kh) -
                          static_cast<long>(g.pad);
          if (iy < 0 || iy >= static_cast<long>(g.height)) {
            for (std::size_t x = 0; x < ow; ++x) dst[y * ow + x] = 0.0f;
            continue;
          }
          const float* src =
              img + (c * g.height + static_cast<std::size_t>(iy)) * g.width;
          if (g.stride == 1) {
            // Unit stride: the valid x range maps to one contiguous source
            // slice [x0, x1); memcpy it and zero-fill the pad edges.
            const long off = static_cast<long>(kw) - static_cast<long>(g.pad);
            const std::size_t x0 = static_cast<std::size_t>(
                std::max<long>(0, -off));
            const std::size_t x1 = static_cast<std::size_t>(std::max<long>(
                0, std::min<long>(static_cast<long>(ow),
                                  static_cast<long>(g.width) - off)));
            float* drow = dst + y * ow;
            for (std::size_t x = 0; x < x0; ++x) drow[x] = 0.0f;
            if (x1 > x0)
              std::memcpy(drow + x0, src + static_cast<std::size_t>(off) + x0,
                          (x1 - x0) * sizeof(float));
            for (std::size_t x = x1; x < ow; ++x) drow[x] = 0.0f;
            continue;
          }
          for (std::size_t x = 0; x < ow; ++x) {
            const long ix = static_cast<long>(x * g.stride + kw) -
                            static_cast<long>(g.pad);
            dst[y * ow + x] =
                (ix < 0 || ix >= static_cast<long>(g.width))
                    ? 0.0f
                    : src[static_cast<std::size_t>(ix)];
          }
        }
      }
    }
  }
}

void col2im(const float* col, const ConvGeom& g, float* img,
            std::size_t ld) {
  LoweringTelemetry& telem = col2im_telemetry();
  telemetry::KernelTimer timer(telem.calls, telem.ns);
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

bool ConvOffsets::build(const ConvGeom& g) {
  if (g == geom) return false;
  if (g.padded_size() >
      static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max()))
    throw std::length_error("ConvOffsets: padded image exceeds int32 offsets");
  const std::size_t cr = g.col_rows(), cc = g.col_cols();
  const bool grew = cr > row_off.capacity() || cc > col_off.capacity();
  row_off.resize(cr);
  col_off.resize(cc);
  const std::size_t hp = g.padded_h(), wp = g.padded_w();
  std::size_t r = 0;
  for (std::size_t c = 0; c < g.channels; ++c)
    for (std::size_t kh = 0; kh < g.kernel_h; ++kh)
      for (std::size_t kw = 0; kw < g.kernel_w; ++kw, ++r)
        row_off[r] = static_cast<std::int32_t>((c * hp + kh) * wp + kw);
  const std::size_t ow = g.out_w();
  for (std::size_t q = 0; q < cc; ++q)
    col_off[q] = static_cast<std::int32_t>(
        (q / ow * wp + q % ow) * g.stride);
  geom = g;
  return grew;
}

void pad_image(const float* img, const ConvGeom& g, float* padded) {
  const std::size_t h = g.height, w = g.width, p = g.pad;
  if (p == 0) {
    std::memcpy(padded, img, g.channels * h * w * sizeof(float));
    return;
  }
  const std::size_t wp = g.padded_w();
  for (std::size_t c = 0; c < g.channels; ++c) {
    float* dst = padded + c * g.padded_h() * wp;
    std::fill(dst, dst + p * wp + p, 0.0f);  // top rows + first left pad
    dst += p * wp + p;
    for (std::size_t y = 0; y < h; ++y, dst += wp) {
      std::memcpy(dst, img + (c * h + y) * w, w * sizeof(float));
      // Right pad of this row and left pad of the next.
      std::fill(dst + w, dst + wp, 0.0f);
    }
    std::fill(dst - p, dst - p + p * wp, 0.0f);  // bottom rows
  }
}

void crop_image(const float* padded, const ConvGeom& g, float* img) {
  const std::size_t h = g.height, w = g.width, p = g.pad;
  const std::size_t wp = g.padded_w();
  for (std::size_t c = 0; c < g.channels; ++c) {
    const float* src = padded + (c * g.padded_h() + p) * wp + p;
    for (std::size_t y = 0; y < h; ++y)
      std::memcpy(img + (c * h + y) * w, src + y * wp, w * sizeof(float));
  }
}

void col2im_padded(const float* col, const ConvOffsets& o, float* padded,
                   std::size_t ld) {
  const ConvGeom& g = o.geom;
  const std::size_t oh = g.out_h(), ow = g.out_w(), cc = oh * ow;
  if (ld == 0) ld = cc;
  for (std::size_t r = 0; r < o.row_off.size(); ++r) {
    float* base = padded + o.row_off[r];
    const float* src = col + r * ld;
    if (g.stride != 1 || ow < 8) {
      // Strided or short output rows do not vectorize; one flat pass over
      // the positions saves the per-row loop overhead.
      for (std::size_t q = 0; q < cc; ++q) base[o.col_off[q]] += src[q];
      continue;
    }
    for (std::size_t y = 0; y < oh; ++y) {
      float* dst = base + o.col_off[y * ow];
      const float* srow = src + y * ow;
#pragma omp simd
      for (std::size_t x = 0; x < ow; ++x) dst[x] += srow[x];
    }
  }
}

}  // namespace remapd
