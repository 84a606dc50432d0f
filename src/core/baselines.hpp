// Baseline fault-tolerance solutions of Fig. 6 (§IV.A, §IV.C).
#pragma once

#include "core/remap_policy.hpp"

namespace remapd {

/// Unprotected training: every physical fault reaches the arithmetic.
class NoProtection final : public RemapPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "none"; }
};

/// Fault-aware mapping performed once at t = 0: critical (backward) tasks
/// are greedily placed on the least-dense crossbars. Static by design — it
/// cannot react to post-deployment faults, which is exactly how it fails in
/// Fig. 6.
class StaticMapping final : public RemapPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "static"; }
  void on_training_start(PolicyContext& ctx) override;
};

/// Remap-WS [12]: remaps the top-5 % most-significant weights (by |w| of
/// the *pre-training* analysis — the method assumes a pretrained model)
/// that land on faulty cells to spare fault-free columns. Implemented as a
/// view filter that absorbs clamps on protected indices; everything else
/// (95 % of the faults) stays.
class RemapWS final : public RemapPolicy {
 public:
  explicit RemapWS(double fraction = 0.05) : fraction_(fraction) {}
  [[nodiscard]] std::string name() const override { return "remap-ws"; }
  [[nodiscard]] FaultView filter_view(std::size_t layer, Phase phase,
                                      FaultView view,
                                      const PolicyContext& ctx) override;
  /// Spare column hardware proportional to the protected fraction.
  [[nodiscard]] double area_overhead_percent() const override {
    return 100.0 * fraction_;
  }

 private:
  double fraction_;
};

/// Remap-T-n %: preemptively remaps the top-n % weights by |gradient| to
/// spare fault-free crossbars every epoch, whether or not they are faulty.
/// Near-ideal accuracy at n = 10 but pays n % spare hardware (§IV.C).
class RemapTopN final : public RemapPolicy {
 public:
  explicit RemapTopN(double fraction) : fraction_(fraction) {}
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] FaultView filter_view(std::size_t layer, Phase phase,
                                      FaultView view,
                                      const PolicyContext& ctx) override;
  [[nodiscard]] double area_overhead_percent() const override {
    return 100.0 * fraction_;
  }

 private:
  double fraction_;
};

/// AN-code ECC [10]: the correction table can absorb the errors of a
/// crossbar only while its fault count stays low — "effective only if the
/// number of faults is low" [5]. Crossbars whose (BIST-estimated) density
/// exceeds the capability keep all their faults uncorrected, which is how
/// the non-uniform distribution (20 % of crossbars at 0.4–1 % plus
/// wear-out accumulation) defeats the code (§IV.C).
class AnCodePolicy final : public RemapPolicy {
 public:
  /// Max crossbar fault density the code corrects (DESIGN §3 item 5).
  static constexpr double kCapability = 0.001;

  [[nodiscard]] std::string name() const override { return "an-code"; }
  [[nodiscard]] FaultView filter_view(std::size_t layer, Phase phase,
                                      FaultView view,
                                      const PolicyContext& ctx) override;
  [[nodiscard]] double area_overhead_percent() const override {
    return 6.3;  // reported by [10]
  }
};

}  // namespace remapd
