// Fig. 5 reproduction: accuracy after training the five CNN models with 2%
// fault density injected only into the forward-phase crossbars vs only into
// the backward-phase crossbars (CIFAR-10-like data).
//
// Paper shape: forward-phase faults have very small impact; backward-phase
// faults cost up to ~45 points — gradients corrupted by stuck cells
// accumulate across weight updates.
//
// Scale via REMAPD_EPOCHS / REMAPD_TRAIN / REMAPD_TEST.

#include <cstdio>

#include "trainer/scenarios.hpp"
#include "util/csv.hpp"

int main() {
  using namespace remapd;
  constexpr double kDensity = 0.02;
  const char* models[] = {"vgg11", "vgg16", "vgg19", "resnet12", "resnet18"};

  std::printf("== Fig. 5: forward vs backward fault tolerance (2%% density) "
              "==\n\n");
  std::printf("%-10s %8s %9s %9s %12s %12s\n", "model", "ideal", "forward",
              "backward", "fwd_loss", "bwd_loss");
  CsvWriter csv("fig5_phase_tolerance.csv");
  csv.header({"model", "ideal", "forward", "backward"});

  double fwd_loss_sum = 0.0, bwd_loss_sum = 0.0;
  for (const char* model : models) {
    const TrainerConfig ideal =
        make_bench_config({.model = model, .fault_model = "ideal"});
    const double acc_ideal = train_with_faults(ideal).final_test_accuracy;

    auto faulty = [&](PhaseFaultTarget phase) {
      TrainerConfig cfg = ideal;
      cfg.faults = FaultScenario::uniform(kDensity);
      cfg.fault_target = phase;
      return train_with_faults(cfg).final_test_accuracy;
    };
    const double acc_fwd = faulty(PhaseFaultTarget::kForwardOnly);
    const double acc_bwd = faulty(PhaseFaultTarget::kBackwardOnly);

    std::printf("%-10s %8.3f %9.3f %9.3f %11.1f%% %11.1f%%\n", model,
                acc_ideal, acc_fwd, acc_bwd, 100.0 * (acc_ideal - acc_fwd),
                100.0 * (acc_ideal - acc_bwd));
    csv.row(model, acc_ideal, acc_fwd, acc_bwd);
    fwd_loss_sum += acc_ideal - acc_fwd;
    bwd_loss_sum += acc_ideal - acc_bwd;
  }

  std::printf("\naverage accuracy loss: forward %.1f%%, backward %.1f%%\n",
              100.0 * fwd_loss_sum / 5.0, 100.0 * bwd_loss_sum / 5.0);
  std::printf("paper shape: backward >> forward (backward up to ~45%% loss, "
              "forward near-ideal)\n");
  std::printf("[fig5] wrote fig5_phase_tolerance.csv\n");
  return 0;
}
