#include "nn/layer.hpp"

#include <cmath>

// Layer is an interface; its virtual destructor anchor lives here so the
// vtable is emitted once.

namespace remapd {

void apply_gradient_pinning(const std::optional<FaultView>& view,
                            Tensor& grad) {
  if (!view || view->empty()) return;
  // Severity of a stuck backward-array cell relative to the healthy
  // gradient scale.
  constexpr float kappa = 12.0f;

  // The reference scale is the RMS of the *healthy* gradient components.
  // Clamped positions are excluded: their pre-pinning gradients are the
  // (large) corrective responses to their own drift, and including them
  // would close a positive feedback loop that diverges for small layers
  // (kappa^2 * clamps >= weights).
  double sq = 0.0;
  for (std::size_t i = 0; i < grad.numel(); ++i)
    sq += static_cast<double>(grad[i]) * grad[i];
  std::size_t excluded = 0;
  for (const auto& c : view->clamps)
    if (c.index < grad.numel()) {
      sq -= static_cast<double>(grad[c.index]) * grad[c.index];
      ++excluded;
    }
  const std::size_t healthy =
      grad.numel() > excluded ? grad.numel() - excluded : 1;
  const float rms = static_cast<float>(
      std::sqrt(std::max(sq, 0.0) / static_cast<double>(healthy)));
  const float magnitude = kappa * rms;

  for (const auto& c : view->clamps)
    if (c.index < grad.numel()) {
      // A deliberately severed (drop-connect) weight is a zero, not a
      // full-scale outlier: it contributes nothing forward and receives no
      // gradient, exactly like standard drop-connect regularization.
      if (c.kind == WeightClampKind::kZeroed)
        grad[c.index] = 0.0f;
      else if (c.kind == WeightClampKind::kLevel)
        // A level-flipped (upset) cell drifts toward the sign of its
        // pinned level; pin the gradient the same way a stuck-at of that
        // polarity would be pinned.
        grad[c.index] = c.value >= 0.0f ? magnitude : -magnitude;
      else
        grad[c.index] = is_stuck_at_1(c.kind) ? magnitude : -magnitude;
    }
}

}  // namespace remapd
