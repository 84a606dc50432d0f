// Ablation studies on the design choices DESIGN.md calls out. One model
// (ResNet-18, which shows strong fault damage at this scale), the Fig. 6
// fault scenario, varying one knob at a time:
//
//   (a) weight-to-conductance mapping: single-array-with-bias (PytorX-
//       style, every stuck cell is a full-scale weight error) vs
//       differential-pair (a fault pins only one half);
//   (b) conductance saturation of the stored weights on/off;
//   (c) Remap-D driven by BIST *estimates* vs ground-truth densities
//       (does estimation error cost accuracy?);
//   (d) Remap-D sender threshold sweep.

#include <cstdio>

#include "trainer/scenarios.hpp"
#include "util/csv.hpp"

namespace {

using namespace remapd;

/// resnet18 under `spec` (by default the Fig. 6 scenario, policy none).
TrainerConfig base_config(ExperimentSpec spec = {}) {
  spec.model = "resnet18";
  return make_bench_config(spec);
}

double run(TrainerConfig cfg) {
  return train_with_faults(cfg).final_test_accuracy;
}

}  // namespace

int main() {
  std::printf("== Ablations (resnet18, Fig. 6 fault scenario) ==\n\n");
  CsvWriter csv("ablation.csv");
  csv.header({"ablation", "variant", "accuracy"});

  {
    const double acc = run(base_config({.fault_model = "ideal"}));
    std::printf("reference ideal accuracy: %.3f\n\n", acc);
    csv.row("reference", "ideal", acc);
  }

  std::printf("(a) weight-to-conductance mapping (policy: none)\n");
  for (auto [mode, name] :
       {std::pair{MappingMode::kSingleArrayBias, "single-array-bias"},
        std::pair{MappingMode::kDifferentialPair, "differential-pair"}}) {
    const double acc = run(base_config({.mapping = mode}));
    std::printf("    %-20s : %.3f\n", name, acc);
    csv.row("mapping", name, acc);
  }

  std::printf("\n(b) conductance saturation of stored weights (policy: "
              "none)\n");
  for (bool sat : {false, true}) {
    TrainerConfig cfg = base_config();
    cfg.saturate_weights = sat;
    const double acc = run(cfg);
    std::printf("    saturation %-9s : %.3f\n", sat ? "on" : "off", acc);
    csv.row("saturation", sat ? "on" : "off", acc);
  }

  std::printf("\n(c) Remap-D density source\n");
  for (bool bist : {true, false}) {
    TrainerConfig cfg = base_config({.policy = "remap-d"});
    cfg.use_bist_estimates = bist;
    const double acc = run(cfg);
    std::printf("    %-20s : %.3f\n",
                bist ? "BIST estimates" : "ground truth", acc);
    csv.row("density-source", bist ? "bist" : "truth", acc);
  }

  std::printf("\n(d) unprotected vs remap-d (same seed, same faults)\n");
  for (const char* policy : {"none", "remap-d"}) {
    const double acc = run(base_config({.policy = policy}));
    std::printf("    %-20s : %.3f\n", policy, acc);
    csv.row("policy", policy, acc);
  }

  std::printf("\n(e) wear-out generator: phenomenological (m, n) rates vs "
              "mechanistic Weibull endurance\n");
  for (bool mech : {false, true}) {
    for (const char* policy : {"none", "remap-d"}) {
      TrainerConfig cfg = base_config({.policy = policy});
      cfg.faults.mechanistic_endurance = mech;
      const double acc = run(cfg);
      std::printf("    %-16s %-8s : %.3f\n",
                  mech ? "weibull" : "(m,n)-rates", policy, acc);
      csv.row(mech ? "wear-weibull" : "wear-rates", policy, acc);
    }
  }

  std::printf("\n[ablation] wrote ablation.csv\n");
  return 0;
}
