// Layer interface of the CNN training substrate.
//
// Layers own their parameters and gradients and implement explicit
// forward/backward passes (define-by-run is unnecessary for a fixed model
// zoo). Weight-bearing layers (Conv2d, Linear) expose their weights as a
// 2-D matrix — the unit the crossbar mapper tiles into 128x128 blocks — and
// accept independent forward/backward FaultViews (see fault_view.hpp).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "nn/fault_view.hpp"
#include "tensor/tensor.hpp"

namespace remapd {

/// A learnable parameter: value + gradient accumulator.
struct Param {
  Tensor value;
  Tensor grad;
  std::string tag;

  explicit Param(Tensor v, std::string t = "")
      : value(std::move(v)), grad(Tensor::zeros(value.shape())),
        tag(std::move(t)) {}

  void zero_grad() { grad.fill(0.0f); }
};

/// Base class of all layers.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Forward pass. `train` selects training-mode behaviour (batch statistics,
  /// activation caching for backward).
  virtual Tensor forward(const Tensor& x, bool train) = 0;

  /// Backward pass: consumes dL/dy, accumulates parameter gradients,
  /// returns dL/dx. Must follow a forward(..., train=true).
  virtual Tensor backward(const Tensor& dy) = 0;

  /// All parameters of the layer (empty for stateless layers).
  virtual std::vector<Param*> params() { return {}; }

  /// Visit this layer and (for composites) every descendant.
  virtual void visit(const std::function<void(Layer&)>& fn) { fn(*this); }

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Interface of layers whose weights live on ReRAM crossbars.
///
/// The weight matrix is logically `weight_rows() x weight_cols()`
/// (output-major, row-major storage). Conv2d flattens its filter bank to
/// C_out x (C_in*KH*KW); Linear is O x I. The trainer installs fault views
/// rebuilt by the crossbar mapper whenever faults change or tasks remap.
class FaultableLayer {
 public:
  virtual ~FaultableLayer() = default;

  [[nodiscard]] virtual std::size_t weight_rows() const = 0;
  [[nodiscard]] virtual std::size_t weight_cols() const = 0;

  /// Install fault views (copied). Either may be empty.
  virtual void set_fault_views(FaultView forward_view,
                               FaultView backward_view) = 0;
  virtual void clear_fault_views() = 0;

  /// Digital weight parameter of the layer (for mapping / analysis).
  virtual Param& weight_param() = 0;
};

using LayerPtr = std::unique_ptr<Layer>;

/// Pin the gradient components whose positions traverse stuck cells of the
/// backward array. The pinned value has the fault's sign (SA1 -> +, SA0 ->
/// -) and a magnitude of `kappa` times the gradient RMS of the layer — the
/// full-scale output of a stuck column relative to the healthy MVM range.
/// `kappa` is fixed at 12 (DESIGN §3): large enough that pinned
/// positions drift decisively, small enough that the healthy-gradient
/// pull-back equilibrates once the fault is remapped away.
void apply_gradient_pinning(const std::optional<FaultView>& view,
                            Tensor& grad);

}  // namespace remapd
