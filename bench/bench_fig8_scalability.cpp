// Fig. 8 reproduction: scalability of Remap-D to larger / harder datasets —
// CIFAR-100-like (20 superclass-granularity classes, tighter class
// separation) and SVHN-like (digit recognition over clutter, more samples).
// Same pre+post fault configuration as Fig. 6.
//
// Paper shape: without protection the models lose ~33% (CIFAR-100); with
// Remap-D the loss shrinks to ~1.3% (CIFAR-100) and <0.5% (SVHN).

#include <cstdio>

#include "trainer/scenarios.hpp"
#include "util/csv.hpp"

int main() {
  using namespace remapd;
  struct DatasetPlan {
    SynthKind kind;
    std::size_t train, test;
  };
  const DatasetPlan datasets[] = {
      {SynthKind::kCifar100, 512, 256},  // harder: more classes
      {SynthKind::kSvhn, 384, 128},      // "more images than CIFAR-10"
  };
  const char* models[] = {"vgg16", "resnet18", "squeezenet"};

  std::printf("== Fig. 8: scalability to CIFAR-100-like and SVHN-like ==\n\n");
  std::printf("%-14s %-10s %8s %8s %9s %10s %10s\n", "dataset", "model",
              "ideal", "none", "remap-d", "none_loss", "rd_loss");
  CsvWriter csv("fig8_scalability.csv");
  csv.header({"dataset", "model", "ideal", "none", "remap_d"});

  for (const auto& ds : datasets) {
    double none_loss = 0.0, rd_loss = 0.0;
    for (const char* model : models) {
      ExperimentSpec spec{.model = model, .dataset = ds.kind,
                          .train = ds.train, .test = ds.test};
      auto accuracy = [&](const char* policy, const char* fault_model) {
        spec.policy = policy;
        spec.fault_model = fault_model;
        return train_with_faults(make_bench_config(spec)).final_test_accuracy;
      };
      const double acc_ideal = accuracy("none", "ideal");
      const double acc_none = accuracy("none", "saf");
      const double acc_rd = accuracy("remap-d", "saf");

      std::printf("%-14s %-10s %8.3f %8.3f %9.3f %9.1f%% %9.1f%%\n",
                  synth_name(ds.kind), model, acc_ideal, acc_none, acc_rd,
                  100.0 * (acc_ideal - acc_none),
                  100.0 * (acc_ideal - acc_rd));
      std::fflush(stdout);
      csv.row(synth_name(ds.kind), model, acc_ideal, acc_none, acc_rd);
      none_loss += acc_ideal - acc_none;
      rd_loss += acc_ideal - acc_rd;
    }
    std::printf("  %s averages: none %.1f%%, remap-d %.1f%%\n\n",
                synth_name(ds.kind), 100.0 * none_loss / 3.0,
                100.0 * rd_loss / 3.0);
  }
  std::printf("paper shape: unprotected ~33%% loss (CIFAR-100); Remap-D "
              "~1.3%% (CIFAR-100), <0.5%% (SVHN)\n");
  std::printf("[fig8] wrote fig8_scalability.csv\n");
  return 0;
}
