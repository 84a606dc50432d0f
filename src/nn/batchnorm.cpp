#include "nn/batchnorm.hpp"

#include <cmath>
#include <stdexcept>

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
  if (train) {
    if (!(xhat_.shape() == x.shape()))
      xhat_ = Tensor::uninitialized(x.shape());
    batch_inv_std_.assign(channels_, 0.0f);
    input_shape_ = x.shape();
  }

  for (std::size_t ch = 0; ch < channels_; ++ch) {
    double mean, var;
    if (train) {
      double s = 0.0;
      for (std::size_t i = 0; i < g.n; ++i) {
        const float* p = x.data() + (i * g.c + ch) * g.spatial;
        for (std::size_t k = 0; k < g.spatial; ++k) s += p[k];
      }
      mean = s / static_cast<double>(count);
      double v = 0.0;
      for (std::size_t i = 0; i < g.n; ++i) {
        const float* p = x.data() + (i * g.c + ch) * g.spatial;
        for (std::size_t k = 0; k < g.spatial; ++k)
          v += (p[k] - mean) * (p[k] - mean);
      }
      var = v / static_cast<double>(count);
      running_mean_[ch] = (1.0f - momentum_) * running_mean_[ch] +
                          momentum_ * static_cast<float>(mean);
      running_var_[ch] = (1.0f - momentum_) * running_var_[ch] +
                         momentum_ * static_cast<float>(var);
      // Chan et al. parallel merge of (count, mean, M2): the pooled window
      // variance includes the spread of the batch means, exactly matching
      // a direct computation over every sample in the window.
      {
        const double nb = static_cast<double>(count);
        const double nw = window_count_;
        const double delta = mean - window_mean_[ch];
        const double n_new = nw + nb;
        window_mean_[ch] += delta * nb / n_new;
        window_m2_[ch] += var * nb + delta * delta * nw * nb / n_new;
        // Every channel of a batch merges the same sample count; advance
        // the shared counter once per batch, after the last channel.
        if (ch + 1 == channels_) window_count_ = n_new;
      }
    } else if (window_count_ > 0.0) {
      mean = window_mean_[ch];
      var = window_m2_[ch] / window_count_;
    } else {
      mean = running_mean_[ch];
      var = running_var_[ch];
    }
    const float inv_std = 1.0f / std::sqrt(static_cast<float>(var) + eps_);
    if (train) batch_inv_std_[ch] = inv_std;
    const float gm = gamma_.value[ch], bt = beta_.value[ch];
    for (std::size_t i = 0; i < g.n; ++i) {
      const float* p = x.data() + (i * g.c + ch) * g.spatial;
      float* q = y.data() + (i * g.c + ch) * g.spatial;
      float* h = train ? xhat_.data() + (i * g.c + ch) * g.spatial : nullptr;
      for (std::size_t k = 0; k < g.spatial; ++k) {
        const float norm = (p[k] - static_cast<float>(mean)) * inv_std;
        if (h) h[k] = norm;
        q[k] = gm * norm + bt;
      }
    }
  }
  return y;
}

Tensor BatchNorm::backward(const Tensor& dy) {
  if (xhat_.empty()) throw std::logic_error(tag_ + ": backward before fwd");
  const auto g = geom_of(input_shape_);
  const auto count = static_cast<float>(g.n * g.spatial);

  Tensor dx = Tensor::uninitialized(input_shape_);
  for (std::size_t ch = 0; ch < channels_; ++ch) {
    // Standard BN backward:
    // dx = gamma*inv_std/count * (count*dy - sum(dy) - xhat*sum(dy*xhat))
    double sum_dy = 0.0, sum_dy_xhat = 0.0;
    for (std::size_t i = 0; i < g.n; ++i) {
      const float* d = dy.data() + (i * g.c + ch) * g.spatial;
      const float* h = xhat_.data() + (i * g.c + ch) * g.spatial;
      for (std::size_t k = 0; k < g.spatial; ++k) {
        sum_dy += d[k];
        sum_dy_xhat += static_cast<double>(d[k]) * h[k];
      }
    }
    gamma_.grad[ch] += static_cast<float>(sum_dy_xhat);
    beta_.grad[ch] += static_cast<float>(sum_dy);

    const float scale = gamma_.value[ch] * batch_inv_std_[ch] / count;
    for (std::size_t i = 0; i < g.n; ++i) {
      const float* d = dy.data() + (i * g.c + ch) * g.spatial;
      const float* h = xhat_.data() + (i * g.c + ch) * g.spatial;
      float* o = dx.data() + (i * g.c + ch) * g.spatial;
      for (std::size_t k = 0; k < g.spatial; ++k) {
        o[k] = scale * (count * d[k] - static_cast<float>(sum_dy) -
                        h[k] * static_cast<float>(sum_dy_xhat));
      }
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
