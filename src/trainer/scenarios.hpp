// Named fault-model presets — the `--fault-model` axis of the scenario
// matrix (fault model x policy; see DESIGN.md §14 and the README table) —
// and the one spec-to-TrainerConfig builder that applies them.
//
// A fault model is a *bundle* of TrainerConfig fields — the permanent SAF
// scenario, the transient-upset scenario, and the IR-drop interconnect
// config — applied on top of an existing config. Policies are the other
// axis and stay orthogonal: any policy can run under any fault model.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "trainer/fault_aware_trainer.hpp"

namespace remapd {

/// One row of the fault-model catalog
/// (`remapd_experiment --list-fault-models`) and the bundle it switches on.
struct FaultModelSpec {
  std::string name;
  bool saf = false;        ///< the paper's stuck-at scenario, compressed
  bool transient = false;  ///< Poisson conductance upsets
  bool ir_drop = false;    ///< finite word/bit-line resistance
  std::string summary;
};

/// The `--fault-model` catalog, in listing order; `saf` is the default.
const std::vector<FaultModelSpec>& fault_model_registry();

/// Overwrite cfg's fault-related fields with the named preset. The SAF
/// preset derives its per-epoch wear-out rate from cfg.epochs (like
/// FaultScenario::paper_default_compressed), so set epochs first. Throws
/// std::invalid_argument naming `--fault-model` for unknown names.
void apply_fault_model(TrainerConfig& cfg, const std::string& name);

/// One training run, as remapd_experiment's flags, a fleet job and the
/// figure benches state it. Fields are named after the CLI flags; an
/// unset optional keeps recommended_config(model)'s value.
struct ExperimentSpec {
  std::string model = "resnet12";
  std::string policy = "none";
  SynthKind dataset = SynthKind::kCifar10;
  std::optional<std::size_t> epochs{}, train{}, test{};
  std::uint64_t seed = 42;
  PhaseFaultTarget phase = PhaseFaultTarget::kAll;
  MappingMode mapping = MappingMode::kSingleArrayBias;
  QuantSpec quant{};
  std::string fault_model = "saf";
  /// Edits of the SAF component, as fractions: the high-band pre-deployment
  /// density (its low end follows at 0.4x), the paper's per-epoch m, and
  /// its per-epoch n (FaultScenario::compressed_post_n).
  std::optional<double> pre_high{}, post_m{}, post_n{};
};

/// The config `spec` stands for, built in one fixed order:
/// recommended_config(model), the run fields, the preset at the final epoch
/// count, the fault edits. Throws std::invalid_argument naming field and
/// flag for an unknown name, a bad quant spec, or an edit with no SAF.
TrainerConfig make_trainer_config(const ExperimentSpec& spec);

/// make_trainer_config after bench scaling: REMAPD_EPOCHS / REMAPD_TRAIN /
/// REMAPD_TEST, when set, replace the spec's (or the model's) values.
TrainerConfig make_bench_config(ExperimentSpec spec);

}  // namespace remapd
