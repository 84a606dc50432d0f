#include "nn/activations.hpp"

#include <stdexcept>

namespace remapd {

void relu_inplace(Tensor& x, Tensor* mask) {
  float* __restrict v = x.data();
  const std::size_t n = x.numel();
  // Branch-free selects under `omp simd`: the sign of an activation is a
  // coin flip, so a per-element branch mispredicts about half the time.
  // `!(v <= 0)` rather than `v > 0`: a NaN is kept (mask 1) and reaches
  // the loss instead of vanishing into a zero.
  if (!mask) {
#pragma omp simd
    for (std::size_t i = 0; i < n; ++i)
      v[i] = !(v[i] <= 0.0f) ? v[i] : 0.0f;
    return;
  }
  // Every element is written below, so a mask of the right shape from the
  // previous step is reused as is.
  if (!(mask->shape() == x.shape())) *mask = Tensor(x.shape());
  float* __restrict m = mask->data();
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) {
    const bool keep = !(v[i] <= 0.0f);
    m[i] = keep ? 1.0f : 0.0f;
    v[i] = keep ? v[i] : 0.0f;
  }
}

void relu_backward_inplace(Tensor& dy, const Tensor& mask) {
  float* __restrict d = dy.data();
  const float* __restrict m = mask.data();
  const std::size_t n = dy.numel();
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) d[i] *= m[i];
}

Tensor ReLU::forward(const Tensor& x, bool train) {
  Tensor y = x;
  relu_inplace(y, train ? &mask_ : nullptr);
  return y;
}

Tensor ReLU::backward(const Tensor& dy) {
  if (mask_.empty()) throw std::logic_error("relu: backward before forward");
  Tensor dx = dy;
  relu_backward_inplace(dx, mask_);
  return dx;
}

Tensor Flatten::forward(const Tensor& x, bool train) {
  if (train) input_shape_ = x.shape();
  const std::size_t n = x.shape()[0];
  return x.reshaped(Shape{n, x.numel() / n});
}

Tensor Flatten::backward(const Tensor& dy) {
  return dy.reshaped(input_shape_);
}

}  // namespace remapd
