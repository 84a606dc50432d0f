#include "trainer/scenarios.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "models/registry.hpp"
#include "util/env.hpp"

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

/// The entry of `known` named `name`; else throws naming the field (as
/// "policy (--policy)", its job-file and CLI names) and the accepted names.
template <class Known, class Proj = std::identity>
const auto& find_name(const char* field, const std::string& name,
                      const Known& known, Proj proj = {}) {
  std::string names;
  for (const auto& k : known) {
    if (std::invoke(proj, k) == name) return k;
    names += (names.empty() ? "" : "|") + std::invoke(proj, k);
  }
  throw std::invalid_argument(std::string(field) + ": unknown name '" + name +
                              "' (expected " + names + ")");
}

}  // namespace

const std::vector<FaultModelSpec>& fault_model_registry() {
  // name, saf, transient, ir_drop, summary
  static const std::vector<FaultModelSpec> specs = {
      {"saf", true, false, false,
       "permanent stuck-at faults: clustered manufacturing defects + "
       "per-epoch wear-out (the paper's scenario; default)"},
      {"transient", false, true, false,
       "transient conductance upsets: Poisson arrivals, cleared only by "
       "verify-and-rewrite (arXiv:2412.03089)"},
      {"ir-drop", false, false, true,
       "finite word/bit-line resistance: position-dependent weight "
       "attenuation, no cell faults (arXiv:1907.00285)"},
      {"saf+transient", true, true, false,
       "permanent faults and transient upsets together"},
      {"saf+ir-drop", true, false, true,
       "permanent faults under resistive lines: the gain spread amplifies "
       "stuck-cell errors near the driven corner"},
      {"ideal", false, false, false,
       "no faults of any kind (upper-bound reference)"},
  };
  return specs;
}

void apply_fault_model(TrainerConfig& cfg, const std::string& name) {
  const FaultModelSpec& fm = find_name(
      "fault_model (--fault-model)", name, fault_model_registry(),
      &FaultModelSpec::name);
  cfg.faults = fm.saf ? FaultScenario::paper_default_compressed(cfg.epochs)
                      : FaultScenario::ideal();
  cfg.transients = {.enabled = fm.transient};
  if (fm.transient) cfg.transients.upset_rate = kUpsetRate;
  cfg.ir_drop = {.wire_ohms_per_cell = fm.ir_drop ? kWireOhmsPerCell : 0.0};
}

TrainerConfig make_trainer_config(const ExperimentSpec& spec) {
  find_name("model (--model)", spec.model, model_zoo());
  find_name("policy (--policy)", spec.policy, policy_registry(),
            &PolicySpec::name);
  if (spec.quant.int8_gemm && !spec.quant.enabled)
    throw std::invalid_argument(
        "int8 (--int8) requires cell_bits (--cell-bits)");
  if (spec.quant.program_noise_sigma != 0.0 && !spec.quant.enabled)
    throw std::invalid_argument(
        "quant_noise (--quant-noise) requires cell_bits (--cell-bits)");
  spec.quant.validate();

  // 1. The model's base config; 2. the run fields.
  TrainerConfig cfg = recommended_config(spec.model);
  cfg.policy = spec.policy;
  cfg.data.kind = spec.dataset;
  cfg.epochs = spec.epochs.value_or(cfg.epochs);
  cfg.data.train = spec.train.value_or(cfg.data.train);
  cfg.data.test = spec.test.value_or(cfg.data.test);
  cfg.seed = spec.seed;
  cfg.fault_target = spec.phase;
  cfg.mapping = spec.mapping;
  cfg.quant = spec.quant;

  // 3. The preset, compressed to the final epoch count.
  apply_fault_model(cfg, spec.fault_model);

  // 4. The fault edits, which only a preset with stuck-at faults (one that
  // enables wear-out) has fields for.
  if ((spec.pre_high || spec.post_m || spec.post_n) && !cfg.faults.enable_post)
    throw std::invalid_argument(
        std::string(spec.pre_high ? "pre_high (--pre-high)"
                    : spec.post_m ? "post_m (--post-m)"
                                  : "post_n (--post-n)") +
        ": fault_model (--fault-model) is " + spec.fault_model +
        ", which has no stuck-at faults");
  if (spec.pre_high) {
    cfg.faults.high_density_hi = *spec.pre_high;
    cfg.faults.high_density_lo = *spec.pre_high * 0.4;
  }
  if (spec.post_m) cfg.faults.post_cell_fraction = *spec.post_m;
  if (spec.post_n)
    cfg.faults.post_xbar_fraction =
        FaultScenario::compressed_post_n(*spec.post_n, cfg.epochs);
  return cfg;
}

TrainerConfig make_bench_config(ExperimentSpec spec) {
  const TrainerConfig base = recommended_config(spec.model);
  spec.epochs = env_size("REMAPD_EPOCHS", spec.epochs.value_or(base.epochs));
  spec.train = env_size("REMAPD_TRAIN", spec.train.value_or(base.data.train));
  spec.test = env_size("REMAPD_TEST", spec.test.value_or(base.data.test));
  return make_trainer_config(spec);
}

}  // namespace remapd
