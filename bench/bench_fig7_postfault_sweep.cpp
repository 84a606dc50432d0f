// Fig. 7 reproduction: Remap-D accuracy for VGG19 and ResNet-12 under
// different post-deployment fault scenarios — m% new faulty cells appear on
// n% of the crossbars after each (paper) epoch, m in {0.1, 0.5, 1}%, n in
// {0.1, 1, 2}%. Per-epoch rates are time-compressed to our epoch count so
// the cumulative wear-out exposure matches the paper's 50-epoch training.
//
// Paper shape: accuracy degrades gracefully and monotonically in (m, n);
// worst case (m=1%, n=2%) loses only ~2.5% with Remap-D.

#include <cstdio>

#include "trainer/scenarios.hpp"
#include "util/csv.hpp"

int main() {
  using namespace remapd;
  const char* models[] = {"vgg19", "resnet12"};
  const double ms[] = {0.001, 0.005, 0.01};
  const double ns[] = {0.001, 0.01, 0.02};

  std::printf("== Fig. 7: Remap-D under post-deployment fault sweeps ==\n\n");
  CsvWriter csv("fig7_postfault_sweep.csv");
  csv.header({"model", "m_pct", "n_pct", "accuracy", "ideal"});

  auto accuracy = [](const ExperimentSpec& spec) {
    return train_with_faults(make_bench_config(spec)).final_test_accuracy;
  };
  for (const char* model : models) {
    const double ideal = accuracy({.model = model, .fault_model = "ideal"});

    std::printf("--- %s (ideal %.3f) ---\n", model, ideal);
    std::printf("%8s", "m\\n");
    for (double n : ns) std::printf(" %9.1f%%", 100.0 * n);
    std::printf("\n");

    for (double m : ms) {
      std::printf("%7.1f%%", 100.0 * m);
      for (double n : ns) {
        // Pre-deployment as in Fig. 6; the post rates (m, n) are edits.
        const double acc = accuracy(
            {.model = model, .policy = "remap-d", .post_m = m, .post_n = n});
        std::printf(" %10.3f", acc);
        std::fflush(stdout);
        csv.row(model, 100.0 * m, 100.0 * n, acc, ideal);
      }
      std::printf("\n");
    }
    std::printf("\n");
  }
  std::printf("paper shape: graceful monotone degradation; worst case "
              "(m=1%%, n=2%%) loss ~2.5%%\n");
  std::printf("[fig7] wrote fig7_postfault_sweep.csv\n");
  return 0;
}
