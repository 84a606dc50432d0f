// Quantized-conductance head-to-head: the two payoffs of narrow cell
// storage, measured against their fp32 baselines.
//
//   gemm      fp32 GemmAPack vs Int8APack on a 256^3 GEMM at 1 and 4
//             threads (median of 9). The int8 path accumulates in exact
//             int32, so its 1-vs-4-thread outputs must be byte-identical —
//             that verdict, and the >= 2x single-thread speedup ordering,
//             are what scripts/check_bench.py pins exactly. GFLOP/s floors
//             catch kernel regressions.
//   accuracy  resnet12 under the SAF trio (saf, saf+transient,
//             saf+ir-drop) trained fp32 vs 4-bit cells (+ 2/3-bit on saf
//             for the bits sweep), remap-d policy. The orderings gate that
//             4-bit training stays within 1 accuracy point of fp32 on
//             every trio member; the float curves themselves are
//             machine-shaped and not gated.
//
// JSON (--json PATH) is compared against bench/baselines/BENCH_quant.json
// through the gate classes its "gates" object declares.
// Exit 0 when every ordering and the determinism verdict hold, 1 otherwise.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "quant/quant.hpp"
#include "tensor/gemm_int8.hpp"
#include "tensor/gemm_kernel.hpp"
#include "trainer/fault_aware_trainer.hpp"
#include "trainer/scenarios.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

using namespace remapd;

constexpr std::size_t kN = 256;  // cube GEMM dimension
constexpr std::size_t kLevels = 16;  // 4-bit cells drive the int8 scale

struct GemmPoint {
  std::string workload;
  int threads;
  double median_ms = 0.0;
  double gflops = 0.0;
};

/// Repetitions per timed GEMM point: a median of 9 keeps one run slowed by
/// a loaded shared host from tripping the wall gate.
constexpr int kReps = 9;

template <typename Fn>
double median_ms(Fn&& fn) {
  double t[kReps];
  for (double& ti : t) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    ti = std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
             .count();
  }
  std::sort(t, t + kReps);
  return t[kReps / 2];
}

GemmPoint bench_fp32(const std::vector<float>& a, const std::vector<float>& b,
                     std::vector<float>& c, int threads) {
  set_parallel_threads(static_cast<std::size_t>(threads));
  GemmAPack pack;
  GemmPoint p{"gemm-fp32-256", threads};
  p.median_ms = median_ms([&] {
    pack.pack(kN, kN, 1.0f, StridedOperand{a.data(), kN, 1});
    pack.multiply(kN, b.data(), kN, 0.0f, c.data(), kN);
  });
  p.gflops = 2.0 * kN * kN * kN / (p.median_ms * 1e-3) / 1e9;
  return p;
}

GemmPoint bench_int8(const std::vector<float>& a, const std::vector<float>& b,
                     std::vector<float>& c, int threads, float a_scale) {
  set_parallel_threads(static_cast<std::size_t>(threads));
  Int8APack pack;
  GemmPoint p{"gemm-int8-256", threads};
  bool ok = true;
  p.median_ms = median_ms([&] {
    pack.pack(kN, kN, StridedOperand{a.data(), kN, 1}, a_scale);
    ok = pack.multiply(kN, StridedOperand{b.data(), kN, 1}, c.data(), kN) &&
         ok;
  });
  if (!ok) std::fprintf(stderr, "bench_quant: int8 multiply fell back!\n");
  // Same 2N^3 work accounting as the fp32 side (int MAC == FLOP here) so
  // the two columns compare directly.
  p.gflops = 2.0 * kN * kN * kN / (p.median_ms * 1e-3) / 1e9;
  return p;
}

/// Bench-scale resnet12 config under a scenario preset, optionally with
/// quantized cells (remap-d keeps the SAF runs trained, so the fp32-vs-bits
/// gap isolates quantization rather than fault collapse).
TrainerConfig quant_cfg(const std::string& fault_model, std::size_t bits) {
  // Preset scale (8 epochs x 256 train): long enough that training
  // genuinely converges, which the within-1pt gates need — stochastic
  // rounding is unbiased but only averages out over enough SGD steps.
  ExperimentSpec spec{
      .model = "resnet12", .policy = "remap-d", .fault_model = fault_model};
  if (bits > 0)
    spec.quant = {.enabled = true, .cell_bits = bits, .int8_gemm = true};
  return make_bench_config(spec);
}

struct AccPoint {
  std::string workload;  ///< e.g. "resnet12-saf-4bit"
  int threads = 4;
  std::size_t cell_bits;
  double best_acc;
  bool deterministic = true;
};

bool same_history(const TrainResult& a, const TrainResult& b) {
  if (a.history.size() != b.history.size()) return false;
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    const EpochRecord& x = a.history[i];
    const EpochRecord& y = b.history[i];
    if (std::memcmp(&x.train_loss, &y.train_loss, sizeof(float)) != 0 ||
        std::memcmp(&x.train_accuracy, &y.train_accuracy, sizeof(double)) !=
            0 ||
        std::memcmp(&x.test_accuracy, &y.test_accuracy, sizeof(double)) != 0)
      return false;
    if (x.remaps != y.remaps || x.total_faults != y.total_faults)
      return false;
  }
  return true;
}

AccPoint run_acc(const std::string& fault_model, std::size_t bits,
                 bool check_threads) {
  AccPoint p;
  p.workload = "resnet12-" + fault_model + "-" +
               (bits ? std::to_string(bits) + "bit" : std::string("fp32"));
  p.cell_bits = bits;
  const TrainerConfig cfg = quant_cfg(fault_model, bits);
  set_parallel_threads(4);
  const TrainResult r = train_with_faults(cfg);
  // Best test accuracy reached during training: the single-epoch final
  // value wobbles by a few samples' worth on a bench-scale test set, while
  // the peak is the stable statistic the within-1pt gates compare.
  p.best_acc = r.final_test_accuracy;
  for (const EpochRecord& e : r.history)
    if (e.test_accuracy > p.best_acc) p.best_acc = e.test_accuracy;
  if (check_threads) {
    set_parallel_threads(1);
    const TrainResult serial = train_with_faults(cfg);
    p.deterministic = same_history(r, serial);
    set_parallel_threads(4);
  }
  std::printf("%-28s best_acc=%.3f%s\n", p.workload.c_str(), p.best_acc,
              check_threads ? (p.deterministic ? "  [1v4-thread: bitwise]"
                                               : "  [1v4-thread: DIVERGED]")
                            : "");
  std::fflush(stdout);
  return p;
}

double acc_of(const std::vector<AccPoint>& pts, const std::string& w) {
  for (const AccPoint& p : pts)
    if (p.workload == w) return p.best_acc;
  return -1.0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "bench_quant: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::printf("== Quantized conductance: int8 GEMM + accuracy vs bits ==\n"
              "   int8 kernel: %s\n\n",
              int8_kernel_name());

  // --- GEMM head-to-head ---
  const float w_max = 1.0f;
  const float a_scale = w_max / static_cast<float>(kLevels - 1);
  std::vector<float> a(kN * kN), b(kN * kN);
  Rng rng(7);
  // A on the 4-bit level grid (what quantized layers actually multiply);
  // B dense in [-1, 1].
  for (float& v : a)
    v = quant::level_decode(
        static_cast<std::uint8_t>(rng.uniform() * kLevels), kLevels, w_max);
  for (float& v : b) v = static_cast<float>(rng.uniform() * 2.0 - 1.0);

  std::vector<float> c_fp(kN * kN), c_i8_t1(kN * kN), c_i8_t4(kN * kN);
  std::vector<GemmPoint> gemm_pts;
  gemm_pts.push_back(bench_fp32(a, b, c_fp, 1));
  gemm_pts.push_back(bench_fp32(a, b, c_fp, 4));
  gemm_pts.push_back(bench_int8(a, b, c_i8_t1, 1, a_scale));
  gemm_pts.push_back(bench_int8(a, b, c_i8_t4, 4, a_scale));
  const bool int8_bitwise =
      std::memcmp(c_i8_t1.data(), c_i8_t4.data(),
                  c_i8_t1.size() * sizeof(float)) == 0;
  const double fp32_1t = gemm_pts[0].gflops, int8_1t = gemm_pts[2].gflops;
  const double speedup_1t = int8_1t / fp32_1t;
  const bool int8_2x = speedup_1t >= 2.0;
  for (const GemmPoint& p : gemm_pts)
    std::printf("%-16s t%d  %8.2f ms  %8.2f GFLOP/s\n", p.workload.c_str(),
                p.threads, p.median_ms, p.gflops);
  std::printf("int8/fp32 single-thread speedup: %.2fx\n", speedup_1t);
  std::printf("int8 1-vs-4-thread C buffers   : %s\n\n",
              int8_bitwise ? "byte-identical" : "DIVERGED");

  // --- accuracy vs bits under the SAF trio ---
  std::vector<AccPoint> acc_pts;
  acc_pts.push_back(run_acc("saf", 0, false));
  acc_pts.push_back(run_acc("saf", 4, true));  // 1v4-thread training check
  acc_pts.push_back(run_acc("saf", 3, false));
  acc_pts.push_back(run_acc("saf", 2, false));
  acc_pts.push_back(run_acc("saf+transient", 0, false));
  acc_pts.push_back(run_acc("saf+transient", 4, false));
  acc_pts.push_back(run_acc("saf+ir-drop", 0, false));
  acc_pts.push_back(run_acc("saf+ir-drop", 4, false));

  const auto within_1pt = [&](const std::string& scen) {
    return acc_of(acc_pts, "resnet12-" + scen + "-4bit") >=
           acc_of(acc_pts, "resnet12-" + scen + "-fp32") - 0.01;
  };
  const bool w_saf = within_1pt("saf");
  const bool w_tr = within_1pt("saf+transient");
  const bool w_ir = within_1pt("saf+ir-drop");
  bool training_det = true;
  for (const AccPoint& p : acc_pts)
    training_det = training_det && p.deterministic;
  const bool deterministic = int8_bitwise && training_det;

  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::printf("\nint8 >= 2x fp32 (1 thread)          : %s\n",
              int8_2x ? "yes" : "NO");
  std::printf("4-bit within 1pt of fp32, saf         : %s\n",
              w_saf ? "yes" : "NO");
  std::printf("4-bit within 1pt, saf+transient       : %s\n",
              w_tr ? "yes" : "NO");
  std::printf("4-bit within 1pt, saf+ir-drop         : %s\n",
              w_ir ? "yes" : "NO");
  std::printf("bitwise deterministic (gemm+training) : %s\n",
              deterministic ? "yes" : "NO");
  std::printf("wall: %.1fs\n", wall_seconds);

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "bench_quant: cannot write %s\n",
                   json_path.c_str());
      return 2;
    }
    out << "{\"bench\":\"quant\",\"kernel\":\"" << int8_kernel_name()
        << "\",\"deterministic\":" << (deterministic ? "true" : "false")
        << ",\"speedup_int8_vs_fp32_1t\":" << speedup_1t
        << ",\"orderings\":{\"int8_2x_fp32_1t\":"
        << (int8_2x ? "true" : "false")
        << ",\"four_bit_within_1pt_saf\":" << (w_saf ? "true" : "false")
        << ",\"four_bit_within_1pt_saf_transient\":"
        << (w_tr ? "true" : "false")
        << ",\"four_bit_within_1pt_saf_irdrop\":"
        << (w_ir ? "true" : "false") << "},\"points\":[";
    bool first = true;
    for (const GemmPoint& p : gemm_pts) {
      out << (first ? "" : ",") << "{\"workload\":\"" << p.workload
          << "\",\"threads\":" << p.threads << ",\"median_ms\":" << p.median_ms
          << ",\"gflops\":" << p.gflops << "}";
      first = false;
    }
    for (const AccPoint& p : acc_pts) {
      out << ",{\"workload\":\"" << p.workload << "\",\"threads\":"
          << p.threads << ",\"cell_bits\":" << p.cell_bits
          << ",\"best_acc\":" << p.best_acc << "}";
    }
    // Accuracy points carry neither timing field, so the point paths
    // gate only the GEMM points; their float accuracies are gated through
    // the ordering booleans instead.
    out << "],\"wall_seconds\":" << wall_seconds
        << R"(,"gates":{"exact":["deterministic","orderings.int8_2x_fp32_1t",)"
        << R"("orderings.four_bit_within_1pt_saf",)"
        << R"("orderings.four_bit_within_1pt_saf_transient",)"
        << R"("orderings.four_bit_within_1pt_saf_irdrop"],)"
        << R"("wall":["points[].median_ms","wall_seconds"],)"
        << R"("floor":["points[].gflops"]}})" << "\n";
    std::printf("wrote %s\n", json_path.c_str());
  }

  const bool pass = int8_2x && w_saf && w_tr && w_ir && deterministic;
  if (!pass) std::printf("FAIL: expected ordering/determinism violated\n");
  return pass ? 0 : 1;
}
