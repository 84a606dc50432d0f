// Test-side reference for BatchNorm: the straightforward scalar loops, one
// channel at a time, each statistic a serial double sum over (sample,
// position). src/ walks channels in lockstep and vectorizes the
// elementwise passes instead; the tests hold it to this reference bitwise.
#pragma once

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "ckpt/snapshot.hpp"
#include "tensor/tensor.hpp"

namespace remapd {

/// The state and arithmetic of one BatchNorm layer, as plain members.
/// save_state writes BatchNorm::save_state's layout, so the two states can
/// be compared byte for byte.
struct BatchNormReference {
  std::size_t channels;
  float momentum = 0.1f, eps = 1e-5f;
  Tensor gamma, beta, gamma_grad, beta_grad;
  Tensor running_mean, running_var;
  std::vector<double> window_mean, window_m2;
  double window_count = 0.0;
  Tensor xhat;
  std::vector<float> batch_inv_std;
  Shape input_shape;

  explicit BatchNormReference(std::size_t c)
      : channels(c), gamma(Tensor::ones(Shape{c})),
        beta(Tensor::zeros(Shape{c})), gamma_grad(Tensor::zeros(Shape{c})),
        beta_grad(Tensor::zeros(Shape{c})),
        running_mean(Tensor::zeros(Shape{c})),
        running_var(Tensor::ones(Shape{c})), window_mean(c, 0.0),
        window_m2(c, 0.0) {}

  void begin_stats_window() {
    window_mean.assign(channels, 0.0);
    window_m2.assign(channels, 0.0);
    window_count = 0.0;
  }

  /// {n, c, spatial} of a rank-2 {N,C} or rank-4 {N,C,H,W} shape.
  static std::vector<std::size_t> geom(const Shape& s) {
    if (s.rank() == 2) return {s[0], s[1], 1};
    if (s.rank() == 4) return {s[0], s[1], s[2] * s[3]};
    throw std::invalid_argument("batchnorm reference: rank must be 2 or 4");
  }

  Tensor forward(const Tensor& x, bool train) {
    const auto g = geom(x.shape());
    const std::size_t n = g[0], c = g[1], sp = g[2];
    const std::size_t count = n * sp;
    Tensor y(x.shape());
    if (train) {
      xhat = Tensor(x.shape());
      batch_inv_std.assign(channels, 0.0f);
      input_shape = x.shape();
    }
    for (std::size_t ch = 0; ch < channels; ++ch) {
      double mean, var;
      if (train) {
        double s = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          const float* p = x.data() + (i * c + ch) * sp;
          for (std::size_t k = 0; k < sp; ++k) s += p[k];
        }
        mean = s / static_cast<double>(count);
        double v = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          const float* p = x.data() + (i * c + ch) * sp;
          for (std::size_t k = 0; k < sp; ++k)
            v += (p[k] - mean) * (p[k] - mean);
        }
        var = v / static_cast<double>(count);
        running_mean[ch] = (1.0f - momentum) * running_mean[ch] +
                           momentum * static_cast<float>(mean);
        running_var[ch] = (1.0f - momentum) * running_var[ch] +
                          momentum * static_cast<float>(var);
        const double nb = static_cast<double>(count);
        const double nw = window_count;
        const double delta = mean - window_mean[ch];
        const double n_new = nw + nb;
        window_mean[ch] += delta * nb / n_new;
        window_m2[ch] += var * nb + delta * delta * nw * nb / n_new;
        if (ch + 1 == channels) window_count = n_new;
      } else if (window_count > 0.0) {
        mean = window_mean[ch];
        var = window_m2[ch] / window_count;
      } else {
        mean = running_mean[ch];
        var = running_var[ch];
      }
      const float inv_std = 1.0f / std::sqrt(static_cast<float>(var) + eps);
      if (train) batch_inv_std[ch] = inv_std;
      const float gm = gamma[ch], bt = beta[ch];
      for (std::size_t i = 0; i < n; ++i) {
        const float* p = x.data() + (i * c + ch) * sp;
        float* q = y.data() + (i * c + ch) * sp;
        float* h = train ? xhat.data() + (i * c + ch) * sp : nullptr;
        for (std::size_t k = 0; k < sp; ++k) {
          const float norm = (p[k] - static_cast<float>(mean)) * inv_std;
          if (h) h[k] = norm;
          q[k] = gm * norm + bt;
        }
      }
    }
    return y;
  }

  Tensor backward(const Tensor& dy) {
    const auto g = geom(input_shape);
    const std::size_t n = g[0], c = g[1], sp = g[2];
    const auto count = static_cast<float>(n * sp);
    Tensor dx(input_shape);
    for (std::size_t ch = 0; ch < channels; ++ch) {
      double sum_dy = 0.0, sum_dy_xhat = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const float* d = dy.data() + (i * c + ch) * sp;
        const float* h = xhat.data() + (i * c + ch) * sp;
        for (std::size_t k = 0; k < sp; ++k) {
          sum_dy += d[k];
          sum_dy_xhat += static_cast<double>(d[k]) * h[k];
        }
      }
      gamma_grad[ch] += static_cast<float>(sum_dy_xhat);
      beta_grad[ch] += static_cast<float>(sum_dy);
      const float scale = gamma[ch] * batch_inv_std[ch] / count;
      for (std::size_t i = 0; i < n; ++i) {
        const float* d = dy.data() + (i * c + ch) * sp;
        const float* h = xhat.data() + (i * c + ch) * sp;
        float* o = dx.data() + (i * c + ch) * sp;
        for (std::size_t k = 0; k < sp; ++k)
          o[k] = scale * (count * d[k] - static_cast<float>(sum_dy) -
                          h[k] * static_cast<float>(sum_dy_xhat));
      }
    }
    return dx;
  }

  void save_state(ckpt::ByteWriter& w) const {
    save_tensor(w, running_mean);
    save_tensor(w, running_var);
    w.vec_f64(window_mean);
    w.vec_f64(window_m2);
    w.f64(window_count);
  }
};

}  // namespace remapd
