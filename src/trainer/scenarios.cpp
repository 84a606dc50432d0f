#include "trainer/scenarios.hpp"

#include <stdexcept>

namespace remapd {
namespace {

// Per-crossbar Poisson mean, as a fraction of cells per epoch. Calibrated so
// an unrefreshed run accumulates a few percent of drifted cells over a short
// (6-8 epoch) compressed training — the same exposure class as the SAF
// scenario's wear-out accumulation.
constexpr double kUpsetRate = 0.004;

// Per-segment wire resistance (Ω). Under single-sided drive at the default
// 32x32 arrays the calibrated gain (xbar/ir_drop.hpp) spreads from ~1.5x at
// the driven corner to ~0.5x at the far corner at this value — a distortion
// that visibly degrades training but doesn't destroy it.
constexpr double kWireOhmsPerCell = 40.0;

TransientScenario default_transients() {
  TransientScenario t;
  t.enabled = true;
  t.upset_rate = kUpsetRate;
  t.toward_on_fraction = 0.5;
  return t;
}

IrDropConfig default_ir_drop() {
  IrDropConfig ir;
  ir.wire_ohms_per_cell = kWireOhmsPerCell;
  return ir;
}

}  // namespace

const std::vector<FaultModelSpec>& fault_model_registry() {
  static const std::vector<FaultModelSpec> specs = {
      {"saf",
       "permanent stuck-at faults: clustered manufacturing defects + "
       "per-epoch wear-out (the paper's scenario; default)"},
      {"transient",
       "transient conductance upsets: Poisson arrivals, cleared only by "
       "verify-and-rewrite (arXiv:2412.03089)"},
      {"ir-drop",
       "finite word/bit-line resistance: position-dependent weight "
       "attenuation, no cell faults (arXiv:1907.00285)"},
      {"saf+transient",
       "permanent faults and transient upsets together"},
      {"saf+ir-drop",
       "permanent faults under resistive lines: the gain spread amplifies "
       "stuck-cell errors near the driven corner"},
      {"ideal", "no faults of any kind (upper-bound reference)"},
  };
  return specs;
}

void apply_fault_model(TrainerConfig& cfg, const std::string& name) {
  // Reset all three axes, then enable what the preset asks for.
  cfg.transients = TransientScenario{};
  cfg.ir_drop = IrDropConfig{};
  if (name == "saf") {
    cfg.faults = FaultScenario::paper_default_compressed(cfg.epochs);
    return;
  }
  if (name == "transient") {
    cfg.faults = FaultScenario::ideal();
    cfg.transients = default_transients();
    return;
  }
  if (name == "ir-drop") {
    cfg.faults = FaultScenario::ideal();
    cfg.ir_drop = default_ir_drop();
    return;
  }
  if (name == "saf+transient") {
    cfg.faults = FaultScenario::paper_default_compressed(cfg.epochs);
    cfg.transients = default_transients();
    return;
  }
  if (name == "saf+ir-drop") {
    cfg.faults = FaultScenario::paper_default_compressed(cfg.epochs);
    cfg.ir_drop = default_ir_drop();
    return;
  }
  if (name == "ideal") {
    cfg.faults = FaultScenario::ideal();
    return;
  }
  throw std::invalid_argument(
      "--fault-model: unknown fault model '" + name +
      "' (see --list-fault-models)");
}

}  // namespace remapd
