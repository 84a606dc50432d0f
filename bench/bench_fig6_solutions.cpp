// Fig. 6 reproduction: accuracy after training the six CNN models in the
// presence of both pre-deployment (clustered, non-uniform, SA0:SA1 = 9:1)
// and post-deployment (0.5% new cells on 1% of crossbars per paper-epoch,
// time-compressed to our epoch count) faults, for every fault-tolerance
// solution the paper compares:
//
//   ideal | none | an-code | static | remap-ws | remap-t-5% | remap-t-10%
//   | remap-d
//
// Paper shape: Remap-D and Remap-T-10% near-ideal; AN-code loses 13.4% on
// average; static mapping and Remap-WS fail badly.

#include <cstdio>

#include "trainer/scenarios.hpp"
#include "util/csv.hpp"

int main() {
  using namespace remapd;
  const char* models[] = {"vgg11", "vgg16", "vgg19",
                          "resnet12", "resnet18", "squeezenet"};
  const char* policies[] = {"none",      "an-code",    "static",
                            "remap-ws",  "remap-t-5",  "remap-t-10",
                            "remap-d"};

  std::printf("== Fig. 6: fault-tolerance solutions under pre+post faults "
              "==\n\n");
  std::printf("%-10s %7s", "model", "ideal");
  for (const char* p : policies) std::printf(" %11s", p);
  std::printf("\n");

  CsvWriter csv("fig6_solutions.csv");
  {
    std::vector<std::string> hdr = {"model", "ideal"};
    for (const char* p : policies) hdr.emplace_back(p);
    csv.header(hdr);
  }

  double an_loss = 0.0, remap_d_loss = 0.0, none_loss = 0.0;
  std::size_t counted = 0;
  for (const char* model : models) {
    ExperimentSpec spec{.model = model, .fault_model = "ideal"};
    const double acc_ideal =
        train_with_faults(make_bench_config(spec)).final_test_accuracy;
    std::printf("%-10s %7.3f", model, acc_ideal);
    std::fflush(stdout);

    std::vector<double> row;
    spec.fault_model = "saf";
    for (const char* policy : policies) {
      spec.policy = policy;
      const TrainResult r = train_with_faults(make_bench_config(spec));
      row.push_back(r.final_test_accuracy);
      std::printf(" %11.3f", r.final_test_accuracy);
      std::fflush(stdout);
    }
    std::printf("\n");
    csv.row(model, acc_ideal, row[0], row[1], row[2], row[3], row[4],
            row[5], row[6]);

    none_loss += acc_ideal - row[0];
    an_loss += acc_ideal - row[1];
    remap_d_loss += acc_ideal - row[6];
    ++counted;
  }

  const double n = static_cast<double>(counted);
  std::printf("\naverage accuracy loss vs ideal:\n");
  std::printf("  none     : %5.1f%%\n", 100.0 * none_loss / n);
  std::printf("  an-code  : %5.1f%%   (paper: 13.4%%)\n",
              100.0 * an_loss / n);
  std::printf("  remap-d  : %5.1f%%   (paper: 0.91%%)\n",
              100.0 * remap_d_loss / n);
  std::printf("  remap-d improvement over an-code: %.1f%%   (paper: 12.5%%)\n",
              100.0 * (an_loss - remap_d_loss) / n);
  std::printf("[fig6] wrote fig6_solutions.csv\n");
  return 0;
}
