// Stateless activation layers. These run on CMOS functional units in the
// target RCS tile (Fig. 1) and are therefore assumed fault-free.
#pragma once

#include "nn/layer.hpp"

namespace remapd {

/// ReLU in place: keeps v where v > 0 or v is NaN, and writes +0.0f
/// everywhere else (-0 included), so a non-finite activation reaches the
/// loss. With `mask` non-null it is reset to x's shape and holds 1 where v
/// was kept, 0 elsewhere.
void relu_inplace(Tensor& x, Tensor* mask);

/// ReLU backward in place: dy[i] *= mask[i].
void relu_backward_inplace(Tensor& dy, const Tensor& mask);

class ReLU final : public Layer {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& dy) override;
  [[nodiscard]] std::string name() const override { return "relu"; }

 private:
  Tensor mask_;  ///< 1 where x > 0
};

/// Flattens (N, C, H, W) to (N, C*H*W); identity on rank-2 input.
class Flatten final : public Layer {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& dy) override;
  [[nodiscard]] std::string name() const override { return "flatten"; }

 private:
  Shape input_shape_;
};

}  // namespace remapd
