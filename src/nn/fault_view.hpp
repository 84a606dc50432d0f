// FaultView: the contract between the ReRAM hardware model and the CNN
// layers.
//
// A layer's weight matrix is stored on crossbars as differential conductance
// pairs (G+, G-): w = wpos - wneg with wpos = max(w,0), wneg = max(-w,0),
// each linearly mapped to [g_off, g_on] over [0, w_max]. A stuck-at fault
// pins one physical cell of the pair, which clamps the *effective* weight
// seen by the analog MVM:
//
//   SA1 on G+ : wpos == w_max  ->  w_eff = w_max - max(-w, 0)
//   SA0 on G+ : wpos == 0      ->  w_eff = -max(-w, 0)
//   SA1 on G- : wneg == w_max  ->  w_eff = max(w, 0) - w_max
//   SA0 on G- : wneg == 0      ->  w_eff = max(w, 0)
//
// Forward-pass crossbars (storing W) and backward-pass crossbars (storing
// W^T for the dX = dY * W^T propagation, as in PipeLayer-style training
// accelerators) are physically distinct, so a layer carries two independent
// FaultViews. Remapping moves a *task* (weight block) to a different
// physical crossbar; the view is rebuilt from the new crossbar's fault mask.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace remapd {

/// Which half of the differential pair is stuck, and at which level.
/// (For single-array mapping only the SA0/SA1 distinction matters.)
enum class WeightClampKind : std::uint8_t {
  kPosStuck0,  ///< SA0 in the positive array
  kPosStuck1,  ///< SA1 in the positive array
  kNegStuck0,  ///< SA0 in the negative array
  kNegStuck1,  ///< SA1 in the negative array
  kZeroed,     ///< connection deliberately severed (drop-connect baseline)
  kLevel,      ///< pinned at an explicit decoded level (quantized upsets)
};

[[nodiscard]] constexpr bool is_stuck_at_1(WeightClampKind k) {
  return k == WeightClampKind::kPosStuck1 || k == WeightClampKind::kNegStuck1;
}

/// How logical weights map to cell conductances.
///
/// kSingleArrayBias (default; the PytorX-class model the paper evaluates
/// with): each weight is one cell, w in [-w_max, +w_max] mapped linearly to
/// [g_off, g_on] with a mid-scale reference column subtracted. A stuck cell
/// therefore pins the weight at full scale: SA0 (g_off) -> -w_max, SA1
/// (g_on) -> +w_max.
///
/// kDifferentialPair (ablation): w = w+ - w- over two cells; a fault pins
/// only the half it lands in, so SA0 faults on the inactive half are
/// harmless and the average corruption is far milder.
enum class MappingMode : std::uint8_t { kSingleArrayBias, kDifferentialPair };

/// One faulty cell mapped onto a flattened weight index. `value` is only
/// meaningful for kLevel clamps: the decoded weight the cell is pinned at
/// (a quantized transient upset flips the stored code's MSB; the mapper
/// decodes the flipped level at view-build time).
struct WeightClamp {
  std::uint32_t index;    ///< flattened index into the layer's weight matrix
  WeightClampKind kind;
  float value = 0.0f;     ///< pinned decoded weight (kLevel only)
};

/// The set of clamps a physical crossbar imposes on the logical weights of
/// the task currently mapped to it.
struct FaultView {
  std::vector<WeightClamp> clamps;
  /// Position-dependent IR-drop attenuation per weight (see
  /// xbar/ir_drop.hpp). Empty means unity gain everywhere (ideal
  /// interconnect); otherwise it must hold one factor per weight.
  std::vector<float> gain;
  float w_max = 1.0f;  ///< conductance-mapping full-scale weight
  MappingMode mode = MappingMode::kSingleArrayBias;
  /// Discrete conductance levels of the cells this task is mapped onto
  /// (0 = continuous cells). Weights written by the stochastic programmer
  /// lie on the L-level grid spanning [-w_max, +w_max].
  std::size_t levels = 0;
  /// True when the layer may run its MVMs through the int8 GEMM fast
  /// path (quantized cells + the spec's int8_gemm opt-in). The layer
  /// still falls back to fp32 for non-finite activations.
  bool int8_path = false;

  [[nodiscard]] bool empty() const { return clamps.empty() && gain.empty(); }

  /// Whether the layer holding this view should run the int8 GEMM fast
  /// path for its MVMs (orthogonal to empty(): a fault-free quantized
  /// layer still quantizes its arithmetic).
  [[nodiscard]] bool int8_selected() const {
    return int8_path && levels >= 2;
  }
  /// Weight quantization scale of the int8 path: one level step in the
  /// signed-integer code space (w = qa * scale exactly for on-grid
  /// weights; see tensor/gemm_int8.hpp).
  [[nodiscard]] float int8_weight_scale() const {
    return w_max / static_cast<float>(levels - 1);
  }

  /// Effective weight of a single stuck cell given its digital value.
  /// (kLevel clamps carry their pinned value on the clamp itself and are
  /// resolved in apply().)
  [[nodiscard]] float clamp_value(float w, WeightClampKind kind) const {
    if (kind == WeightClampKind::kZeroed) return 0.0f;
    if (mode == MappingMode::kSingleArrayBias)
      return is_stuck_at_1(kind) ? w_max : -w_max;
    const float wpos = w > 0.0f ? w : 0.0f;
    const float wneg = w < 0.0f ? -w : 0.0f;
    switch (kind) {
      case WeightClampKind::kPosStuck0: return -wneg;
      case WeightClampKind::kPosStuck1: return w_max - wneg;
      case WeightClampKind::kNegStuck0: return wpos;
      case WeightClampKind::kNegStuck1: return wpos - w_max;
      case WeightClampKind::kZeroed: return 0.0f;  // handled above
      case WeightClampKind::kLevel: return w;      // resolved in apply()
    }
    return w;
  }

  /// Copy `n` digital weights into `out`, apply the IR-drop gains, then
  /// the clamps (a stuck cell's full-scale conductance is attenuated by
  /// the same wire path as a healthy one). A clamp index at or past `n` —
  /// or a gain field of the wrong length — means the mapper built this
  /// view for a different layer shape; silently dropping either would make
  /// the crossbar look healthier than it is, so it throws instead.
  void apply(const float* w, float* out, std::size_t n) const {
    if (!gain.empty() && gain.size() != n)
      throw std::out_of_range("FaultView::apply: gain field holds " +
                              std::to_string(gain.size()) +
                              " factors for " + std::to_string(n) +
                              " weights");
    if (gain.empty()) {
      std::copy(w, w + n, out);
    } else {
      const float* __restrict src = w;
      const float* __restrict gn = gain.data();
      float* __restrict dst = out;
#pragma omp simd
      for (std::size_t i = 0; i < n; ++i) dst[i] = src[i] * gn[i];
    }
    for (const auto& c : clamps) {
      if (c.index >= n)
        throw std::out_of_range("FaultView::apply: clamp index " +
                                std::to_string(c.index) +
                                " >= weight count " + std::to_string(n));
      const float v = c.kind == WeightClampKind::kLevel
                          ? c.value
                          : clamp_value(w[c.index], c.kind);
      out[c.index] = gain.empty() ? v : v * gain[c.index];
    }
  }
};

}  // namespace remapd
