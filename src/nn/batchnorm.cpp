#include "nn/batchnorm.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "nn/channel_groups.hpp"

namespace remapd {
namespace {

// Iterate a rank-2 {N,C} or rank-4 {N,C,H,W} tensor channel-wise.
struct ChannelGeom {
  std::size_t n, c, spatial;
};

ChannelGeom geom_of(const Shape& s) {
  if (s.rank() == 2) return {s[0], s[1], 1};
  if (s.rank() == 4) return {s[0], s[1], s[2] * s[3]};
  throw std::invalid_argument("batchnorm: rank must be 2 or 4");
}

/// Walks a group of channels starting at c0 in lockstep, in (sample,
/// position) order: `step(e)` gets the flat index of channel c0's element
/// at that (sample, position); channel c0 + j's is e + j * spatial. Each
/// channel therefore sees its elements in the order a walk over that
/// channel alone would, so a per-channel sum adds the same sequence.
template <class F>
void walk_group(const ChannelGeom& g, std::size_t c0, F&& step) {
  for (std::size_t i = 0; i < g.n; ++i) {
    const std::size_t plane = (i * g.c + c0) * g.spatial;
    for (std::size_t k = 0; k < g.spatial; ++k) step(plane + k);
  }
}

}  // namespace

BatchNorm::BatchNorm(std::size_t channels, float momentum, float eps,
                     std::string tag)
    : channels_(channels), momentum_(momentum), eps_(eps),
      gamma_(Tensor::ones(Shape{channels}), tag + ".gamma"),
      beta_(Tensor::zeros(Shape{channels}), tag + ".beta"),
      running_mean_(Tensor::zeros(Shape{channels})),
      running_var_(Tensor::ones(Shape{channels})),
      window_mean_(channels, 0.0),
      window_m2_(channels, 0.0),
      tag_(std::move(tag)) {}

void BatchNorm::begin_stats_window() {
  window_mean_.assign(channels_, 0.0);
  window_m2_.assign(channels_, 0.0);
  window_count_ = 0.0;
}

Tensor BatchNorm::forward(const Tensor& x, bool train) {
  const auto g = geom_of(x.shape());
  if (g.c != channels_)
    throw std::invalid_argument(tag_ + ": channel mismatch");
  const std::size_t count = g.n * g.spatial;

  // Every element of y (and of xhat_ in training) is written below.
  Tensor y = Tensor::uninitialized(x.shape());
  // Per-channel (mean, var): the batch's in training, else the window's or
  // the EMA's.
  std::vector<double> mean(channels_), var(channels_);
  if (train) {
    if (!(xhat_.shape() == x.shape()))
      xhat_ = Tensor::uninitialized(x.shape());
    batch_inv_std_.assign(channels_, 0.0f);
    input_shape_ = x.shape();
    for_channel_groups<8>(channels_, [&](auto width, std::size_t c0) {
      constexpr std::size_t W = decltype(width)::value;
      const float* xs = x.data();
      double s[W] = {};
      walk_group(g, c0, [&](std::size_t e) {
#pragma GCC unroll 8
        for (std::size_t j = 0; j < W; ++j) s[j] += xs[e + j * g.spatial];
      });
      double m[W] = {}, v[W] = {};
      for (std::size_t j = 0; j < W; ++j)
        m[j] = mean[c0 + j] = s[j] / static_cast<double>(count);
      walk_group(g, c0, [&](std::size_t e) {
#pragma GCC unroll 8
        for (std::size_t j = 0; j < W; ++j) {
          const double d = xs[e + j * g.spatial] - m[j];
          v[j] += d * d;
        }
      });
      for (std::size_t j = 0; j < W; ++j)
        var[c0 + j] = v[j] / static_cast<double>(count);
    });
  }

  for (std::size_t ch = 0; ch < channels_; ++ch) {
    if (train) {
      running_mean_[ch] = (1.0f - momentum_) * running_mean_[ch] +
                          momentum_ * static_cast<float>(mean[ch]);
      running_var_[ch] = (1.0f - momentum_) * running_var_[ch] +
                         momentum_ * static_cast<float>(var[ch]);
      // Chan et al. parallel merge of (count, mean, M2): the pooled window
      // variance includes the spread of the batch means, exactly matching
      // a direct computation over every sample in the window.
      {
        const double nb = static_cast<double>(count);
        const double nw = window_count_;
        const double delta = mean[ch] - window_mean_[ch];
        const double n_new = nw + nb;
        window_mean_[ch] += delta * nb / n_new;
        window_m2_[ch] += var[ch] * nb + delta * delta * nw * nb / n_new;
        // Every channel of a batch merges the same sample count; advance
        // the shared counter once per batch, after the last channel.
        if (ch + 1 == channels_) window_count_ = n_new;
      }
    } else if (window_count_ > 0.0) {
      mean[ch] = window_mean_[ch];
      var[ch] = window_m2_[ch] / window_count_;
    } else {
      mean[ch] = running_mean_[ch];
      var[ch] = running_var_[ch];
    }
    const float inv_std =
        1.0f / std::sqrt(static_cast<float>(var[ch]) + eps_);
    const float mu = static_cast<float>(mean[ch]);
    const float gm = gamma_.value[ch], bt = beta_.value[ch];
    if (train) batch_inv_std_[ch] = inv_std;
    for (std::size_t i = 0; i < g.n; ++i) {
      const std::size_t off = (i * g.c + ch) * g.spatial;
      const float* __restrict p = x.data() + off;
      float* __restrict q = y.data() + off;
      if (train) {
        float* __restrict h = xhat_.data() + off;
#pragma omp simd
        for (std::size_t k = 0; k < g.spatial; ++k) {
          const float norm = (p[k] - mu) * inv_std;
          h[k] = norm;
          q[k] = gm * norm + bt;
        }
      } else {
#pragma omp simd
        for (std::size_t k = 0; k < g.spatial; ++k)
          q[k] = gm * ((p[k] - mu) * inv_std) + bt;
      }
    }
  }
  return y;
}

Tensor BatchNorm::backward(const Tensor& dy) {
  if (xhat_.empty()) throw std::logic_error(tag_ + ": backward before fwd");
  const auto g = geom_of(input_shape_);
  const auto count = static_cast<float>(g.n * g.spatial);

  // Standard BN backward:
  // dx = gamma*inv_std/count * (count*dy - sum(dy) - xhat*sum(dy*xhat))
  // Two accumulators per channel, so groups of 4 keep all 8 in registers.
  std::vector<double> sum_dy(channels_), sum_dy_xhat(channels_);
  for_channel_groups<4>(channels_, [&](auto width, std::size_t c0) {
    constexpr std::size_t W = decltype(width)::value;
    const float* d = dy.data();
    const float* h = xhat_.data();
    double sd[W] = {}, sdh[W] = {};
    walk_group(g, c0, [&](std::size_t e) {
#pragma GCC unroll 4
      for (std::size_t j = 0; j < W; ++j) {
        const float dv = d[e + j * g.spatial];
        sd[j] += dv;
        sdh[j] += static_cast<double>(dv) * h[e + j * g.spatial];
      }
    });
    for (std::size_t j = 0; j < W; ++j) {
      sum_dy[c0 + j] = sd[j];
      sum_dy_xhat[c0 + j] = sdh[j];
    }
  });

  Tensor dx = Tensor::uninitialized(input_shape_);
  for (std::size_t ch = 0; ch < channels_; ++ch) {
    gamma_.grad[ch] += static_cast<float>(sum_dy_xhat[ch]);
    beta_.grad[ch] += static_cast<float>(sum_dy[ch]);

    const float scale = gamma_.value[ch] * batch_inv_std_[ch] / count;
    const float sdy = static_cast<float>(sum_dy[ch]);
    const float sdh = static_cast<float>(sum_dy_xhat[ch]);
    for (std::size_t i = 0; i < g.n; ++i) {
      const std::size_t off = (i * g.c + ch) * g.spatial;
      const float* __restrict d = dy.data() + off;
      const float* __restrict h = xhat_.data() + off;
      float* __restrict o = dx.data() + off;
#pragma omp simd
      for (std::size_t k = 0; k < g.spatial; ++k)
        o[k] = scale * (count * d[k] - sdy - h[k] * sdh);
    }
  }
  return dx;
}

void BatchNorm::save_state(ckpt::ByteWriter& w) const {
  save_tensor(w, running_mean_);
  save_tensor(w, running_var_);
  w.vec_f64(window_mean_);
  w.vec_f64(window_m2_);
  w.f64(window_count_);
}

void BatchNorm::load_state(ckpt::ByteReader& r) {
  load_tensor_into(r, running_mean_);
  load_tensor_into(r, running_var_);
  auto mean = r.vec_f64();
  auto m2 = r.vec_f64();
  if (mean.size() != channels_ || m2.size() != channels_)
    throw ckpt::CheckpointError(
        tag_ + ": window accumulator length mismatch: stored " +
        std::to_string(mean.size()) + ", expected " +
        std::to_string(channels_));
  window_mean_ = std::move(mean);
  window_m2_ = std::move(m2);
  window_count_ = r.f64();
}

}  // namespace remapd
