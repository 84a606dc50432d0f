#include "tensor/im2col.hpp"

#include <algorithm>
#include <cstring>

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

}  // namespace remapd
