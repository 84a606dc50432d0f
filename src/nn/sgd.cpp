#include "nn/sgd.hpp"

#include <cmath>

namespace remapd {

Sgd::Sgd(std::vector<Param*> params, Config cfg)
    : params_(std::move(params)), cfg_(cfg) {
  velocity_.reserve(params_.size());
  for (const Param* p : params_)
    velocity_.push_back(Tensor::zeros(p->value.shape()));
}

void Sgd::step() {
  // Global-norm gradient clipping keeps training stable when faulty
  // backward crossbars inject large spurious gradient components.
  float scale = 1.0f;
  if (cfg_.grad_clip > 0.0f) {
    double sq = 0.0;
    for (const Param* p : params_)
      for (std::size_t i = 0; i < p->grad.numel(); ++i)
        sq += static_cast<double>(p->grad[i]) * p->grad[i];
    const double norm = std::sqrt(sq);
    if (norm > cfg_.grad_clip)
      scale = static_cast<float>(cfg_.grad_clip / norm);
  }

  // The update is elementwise: each weight reads only its own gradient
  // and velocity.
  const float wd = cfg_.weight_decay, mom = cfg_.momentum, lr = cfg_.lr;
  for (std::size_t k = 0; k < params_.size(); ++k) {
    Param* p = params_[k];
    float* __restrict w = p->value.data();
    float* __restrict v = velocity_[k].data();
    const float* __restrict gr = p->grad.data();
    const std::size_t n = p->value.numel();
#pragma omp simd
    for (std::size_t i = 0; i < n; ++i) {
      const float g = gr[i] * scale + wd * w[i];
      v[i] = mom * v[i] + g;
      w[i] -= lr * v[i];
    }
    p->zero_grad();
  }
}

void Sgd::zero_grad() {
  for (Param* p : params_) p->zero_grad();
}

void Sgd::save_state(ckpt::ByteWriter& w) const {
  w.u64(velocity_.size());
  for (const Tensor& v : velocity_) save_tensor(w, v);
}

void Sgd::load_state(ckpt::ByteReader& r) {
  const std::uint64_t count = r.u64();
  if (count != velocity_.size())
    throw ckpt::CheckpointError(
        "SGD velocity count mismatch: stored " + std::to_string(count) +
        ", optimizer has " + std::to_string(velocity_.size()));
  for (Tensor& v : velocity_) load_tensor_into(r, v);
}

}  // namespace remapd
