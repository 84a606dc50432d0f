#include "nn/linear.hpp"

#include <stdexcept>
#include <vector>

#include "telemetry/telemetry.hpp"
#include "tensor/gemm.hpp"

namespace remapd {

Linear::Linear(std::size_t in_features, std::size_t out_features, Rng& rng,
               std::string tag)
    : in_f_(in_features), out_f_(out_features),
      weight_(Tensor::kaiming(Shape{out_features, in_features}, in_features,
                              rng),
              tag + ".weight"),
      bias_(Tensor::zeros(Shape{out_features}), tag + ".bias"),
      tag_(std::move(tag)) {}

void Linear::set_fault_views(FaultView forward_view, FaultView backward_view) {
  fwd_view_ = std::move(forward_view);
  bwd_view_ = std::move(backward_view);
}

void Linear::clear_fault_views() {
  fwd_view_.reset();
  bwd_view_.reset();
}

const Tensor& Linear::effective_weights(const std::optional<FaultView>& view,
                                        Tensor& cache) const {
  if (!view || view->empty()) return weight_.value;
  if (cache.numel() != weight_.value.numel())
    cache = Tensor::zeros(weight_.value.shape());
  view->apply(weight_.value.data(), cache.data(), weight_.value.numel());
  return cache;
}

Tensor Linear::forward(const Tensor& x, bool train) {
  // Accept any rank: flatten trailing dims into features.
  const std::size_t n = x.shape()[0];
  if (x.numel() != n * in_f_)
    throw std::invalid_argument(tag_ + ": bad input " + x.shape().str());
  Tensor x2 = x.reshaped(Shape{n, in_f_});

  // As in Conv2d: eval-mode forwards may run concurrently, so only the
  // training path writes the member cache.
  Tensor local_eff;
  const Tensor& we =
      effective_weights(fwd_view_, train ? fwd_eff_ : local_eff);
  Tensor y(Shape{n, out_f_});
  // y = x2 (n x in) * We^T (in x out). On the int8 path the quantized
  // operand must be the A (weight) side, so the product is computed as
  // We (out x in) * x2^T (in x n) and transposed into y (strides express
  // both transposes — no copies).
  bool done = false;
  if (fwd_view_ && fwd_view_->int8_selected()) {
    Int8APack local_i8;
    Int8APack& wi8 = train ? fwd_i8_ : local_i8;
    wi8.pack(out_f_, in_f_, StridedOperand{we.data(), in_f_, 1},
             fwd_view_->int8_weight_scale());
    std::vector<float> ct(out_f_ * n);
    if (wi8.multiply(n, StridedOperand{x2.data(), 1, in_f_}, ct.data(), n)) {
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t o = 0; o < out_f_; ++o)
          y.at(i, o) = ct[o * n + i];
      done = true;
    }
    // Counting 0 still registers the counter, so it reads zero when
    // nothing fell back.
    telemetry::count("nn.linear.int8_fallbacks", done ? 0 : 1);
  }
  if (!done)
    gemm(false, true, n, out_f_, in_f_, 1.0f, x2.data(), in_f_, we.data(),
         in_f_, 0.0f, y.data(), out_f_);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t o = 0; o < out_f_; ++o) y.at(i, o) += bias_.value[o];

  if (train) {
    last_x_ = std::move(x2);
    last_input_shape_ = x.shape();
  }
  return y;
}

Tensor Linear::backward(const Tensor& dy) {
  if (last_x_.empty())
    throw std::logic_error(tag_ + ": backward without forward(train)");
  const std::size_t n = last_x_.shape()[0];

  // dW += dy^T (out x n) * x (n x in)   — digital accumulation.
  gemm(true, false, out_f_, in_f_, n, 1.0f, dy.data(), out_f_, last_x_.data(),
       in_f_, 1.0f, weight_.grad.data(), in_f_);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t o = 0; o < out_f_; ++o) bias_.grad[o] += dy.at(i, o);

  // Stuck backward-array cells pin their gradient components at a fixed
  // sign and full-scale magnitude (see the matching note in conv2d.cpp).
  apply_gradient_pinning(bwd_view_, weight_.grad);

  // dx = dy (n x out) * We_bwd (out x in) — via the backward crossbars.
  // Int8 path: A = We_bwd^T (in x out), B = dy^T (out x n), transposed back.
  const Tensor& wb = effective_weights(bwd_view_, bwd_eff_);
  Tensor dx(Shape{n, in_f_});
  bool done = false;
  if (bwd_view_ && bwd_view_->int8_selected()) {
    bwd_i8_.pack(in_f_, out_f_, StridedOperand{wb.data(), 1, in_f_},
                 bwd_view_->int8_weight_scale());
    std::vector<float> ct(in_f_ * n);
    if (bwd_i8_.multiply(n, StridedOperand{dy.data(), 1, out_f_}, ct.data(),
                         n)) {
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < in_f_; ++j)
          dx.at(i, j) = ct[j * n + i];
      done = true;
    }
    telemetry::count("nn.linear.int8_fallbacks", done ? 0 : 1);
  }
  if (!done)
    gemm(false, false, n, in_f_, out_f_, 1.0f, dy.data(), out_f_, wb.data(),
         in_f_, 0.0f, dx.data(), in_f_);
  return dx.reshaped(last_input_shape_);
}

}  // namespace remapd
