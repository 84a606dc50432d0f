// Microbenchmarks (google-benchmark) of the library's hot kernels: GEMM,
// fault injection, analog column reads, BIST runs, fault-view
// construction, and NoC cycle stepping. These bound the wall-clock cost of
// the figure-reproduction benches.
//
// `--json PATH` switches to a handwritten micro-set covering the packed
// GEMM kernel's three driver paths (NN/NT/TN at 256^3, with GFLOP/s), the
// fused conv forward/backward, at 1 and 4 threads with a
// bitwise cross-thread determinism verdict — the BENCH_kernels.json
// perf-trajectory record that scripts/check_bench.py gates on, through the
// "gates" object the record declares.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bist/controller.hpp"
#include "nn/conv2d.hpp"
#include "noc/network.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_kernel.hpp"
#include "util/parallel.hpp"
#include "xbar/mapper.hpp"

namespace {

using namespace remapd;

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  Tensor a = Tensor::randn(Shape{n, n}, rng);
  Tensor b = Tensor::randn(Shape{n, n}, rng);
  Tensor c(Shape{n, n});
  for (auto _ : state) {
    gemm(false, false, n, n, n, 1.0f, a.data(), n, b.data(), n, 0.0f,
         c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_Gemm)->Arg(32)->Arg(64)->Arg(128);

void BM_FaultInjection(benchmark::State& state) {
  Rng rng(3);
  for (auto _ : state) {
    Crossbar xb(128, 128);
    xb.inject_clustered_faults(164, 0.9, 2, rng);  // 1% density
    benchmark::DoNotOptimize(xb.fault_count());
  }
}
BENCHMARK(BM_FaultInjection);

void BM_ColumnCurrents(benchmark::State& state) {
  Crossbar xb(128, 128);
  Rng rng(4);
  xb.inject_random_faults(164, 0.9, rng);
  for (auto _ : state) {
    auto currents = all_column_currents(xb, TestPattern::kAllZero);
    benchmark::DoNotOptimize(currents.data());
  }
}
BENCHMARK(BM_ColumnCurrents);

void BM_BistRun(benchmark::State& state) {
  Crossbar xb(128, 128);
  Rng rng(5);
  xb.inject_random_faults(164, 0.9, rng);
  BistController bist;
  for (auto _ : state) {
    const BistReport rep = bist.run(xb);
    benchmark::DoNotOptimize(rep.density_estimate);
  }
}
BENCHMARK(BM_BistRun);

void BM_BuildFaultView(benchmark::State& state) {
  RcsConfig cfg = RcsConfig::sized_for(80, 32, 32);
  Rcs rcs(cfg);
  WeightMapper mapper(rcs);
  mapper.map_layers({{64, 576}});
  Rng rng(6);
  for (XbarId x = 0; x < rcs.total_crossbars(); ++x)
    rcs.crossbar(x).inject_random_faults(10, 0.9, rng);
  for (auto _ : state) {
    FaultView v = mapper.build_fault_view(0, Phase::kBackward, 0.5f);
    benchmark::DoNotOptimize(v.clamps.data());
  }
}
BENCHMARK(BM_BuildFaultView);

void BM_NocBroadcast(benchmark::State& state) {
  using namespace remapd::noc;
  NocConfig cfg;
  cfg.geometry = CmeshGeometry{8, 8};
  for (auto _ : state) {
    Network net(cfg);
    net.inject(PacketKind::kRemapRequest, 0, kBroadcast, 1);
    benchmark::DoNotOptimize(net.run_until_idle());
  }
}
BENCHMARK(BM_NocBroadcast);

void BM_NocWeightTransfer(benchmark::State& state) {
  using namespace remapd::noc;
  NocConfig cfg;
  cfg.geometry = CmeshGeometry{8, 8};
  for (auto _ : state) {
    Network net(cfg);
    net.inject(PacketKind::kWeightTransfer, 0, 63, 1024);
    benchmark::DoNotOptimize(net.run_until_idle());
  }
}
BENCHMARK(BM_NocWeightTransfer);

// ---------------------------------------------------------------------------
// --json micro-set (BENCH_kernels.json)
// ---------------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

/// Median-of-3 wall-clock seconds for `fn`.
template <typename Fn>
double time_it(Fn&& fn) {
  std::vector<double> runs;
  for (int r = 0; r < 3; ++r) {
    const auto t0 = Clock::now();
    fn();
    runs.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
  }
  std::sort(runs.begin(), runs.end());
  return runs[1];
}

struct KernelPoint {
  std::string workload;
  std::size_t threads;
  double median_ms;
  double gflops;  ///< 0 when the workload has no closed-form flop count
};

/// One micro-workload: runs `fn` (which must leave its result in `out`),
/// records a timing point, and cross-checks `out` bitwise against the
/// serial run.
struct Micro {
  const char* name;
  double flops;  // per single execution; 0 = no GFLOP/s reported
  std::function<void()> fn;
  const std::vector<float>* out;
  std::vector<float> serial;
};

int run_json_microset(const std::string& json_path) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  constexpr std::size_t kN = 256;

  Rng rng(11);
  const Tensor a = Tensor::randn(Shape{kN, kN}, rng);
  const Tensor b = Tensor::randn(Shape{kN, kN}, rng);
  std::vector<float> c_nn(kN * kN), c_nt(kN * kN), c_tn(kN * kN);
  const double cube_flops = 2.0 * kN * kN * kN;

  const Tensor cx = Tensor::randn(Shape{16, 3, 32, 32}, rng);
  Rng crng(7);
  Conv2d conv(3, 32, 3, 1, 1, crng);
  Tensor cdy = Tensor::zeros(Shape{16, 32, 32, 32});
  for (std::size_t i = 0; i < cdy.numel(); i += 97) cdy[i] = 1.0f;
  std::vector<float> conv_y, conv_dx;

  std::vector<Micro> micros;
  micros.push_back({"gemm_nn_256", cube_flops,
                    [&] {
                      gemm(false, false, kN, kN, kN, 1.0f, a.data(), kN,
                           b.data(), kN, 0.0f, c_nn.data(), kN);
                    },
                    &c_nn,
                    {}});
  micros.push_back({"gemm_nt_256", cube_flops,
                    [&] {
                      gemm(false, true, kN, kN, kN, 1.0f, a.data(), kN,
                           b.data(), kN, 0.0f, c_nt.data(), kN);
                    },
                    &c_nt,
                    {}});
  micros.push_back({"gemm_tn_256", cube_flops,
                    [&] {
                      gemm(true, false, kN, kN, kN, 1.0f, a.data(), kN,
                           b.data(), kN, 0.0f, c_tn.data(), kN);
                    },
                    &c_tn,
                    {}});
  micros.push_back({"conv_fwd", 0.0,
                    [&] {
                      const Tensor y = conv.forward(cx, /*train=*/true);
                      conv_y.assign(y.data(), y.data() + y.numel());
                    },
                    &conv_y,
                    {}});
  micros.push_back({"conv_bwd", 0.0,
                    [&] {
                      for (Param* p : conv.params()) p->zero_grad();
                      const Tensor dx = conv.backward(cdy);
                      conv_dx.assign(dx.data(), dx.data() + dx.numel());
                    },
                    &conv_dx,
                    {}});

  std::vector<KernelPoint> points;
  bool deterministic = true;
  for (const std::size_t n : {std::size_t{1}, std::size_t{4}}) {
    set_parallel_threads(n);
    // conv_bwd needs a fresh train-mode forward under THIS thread count so
    // the layer's saved padded input exists; conv_fwd (run first) provides
    // it.
    for (Micro& m : micros) {
      const double s = time_it(m.fn);
      if (n == 1) {
        m.serial = *m.out;
      } else if (m.serial.size() != m.out->size() ||
                 std::memcmp(m.serial.data(), m.out->data(),
                             m.serial.size() * sizeof(float)) != 0) {
        std::printf("FAIL: %s result differs at %zu threads\n", m.name, n);
        deterministic = false;
      }
      points.push_back(
          {m.name, n, s * 1e3, m.flops > 0.0 ? m.flops / s * 1e-9 : 0.0});
      std::printf("%-14s %2zu threads  %10.3f ms", m.name, n, s * 1e3);
      if (m.flops > 0.0) std::printf("  %8.2f GFLOP/s", m.flops / s * 1e-9);
      std::printf("\n");
    }
  }
  std::printf("results bitwise-identical across thread counts: %s\n",
              deterministic ? "yes" : "NO");

  std::ostringstream os;
  os << "{\"bench\":\"kernels\",\"hardware_threads\":" << hw
     << ",\"kernel\":\"" << gemm_kernel_name() << "\",\"deterministic\":"
     << (deterministic ? "true" : "false") << ",\"points\":[";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const KernelPoint& p = points[i];
    os << (i ? "," : "") << "{\"workload\":\"" << p.workload
       << "\",\"threads\":" << p.threads << ",\"median_ms\":" << p.median_ms;
    if (p.gflops > 0.0) os << ",\"gflops\":" << p.gflops;
    os << "}";
  }
  // The determinism verdict is exact; every timing point is bounded above
  // and every GFLOP/s point below (check_bench.py applies the slack).
  os << R"(],"gates":{"exact":["deterministic"],)"
     << R"("wall":["points[].median_ms"],"floor":["points[].gflops"]}})";
  std::ofstream out(json_path);
  if (!out) {
    std::fprintf(stderr, "bench_kernels: cannot write %s\n",
                 json_path.c_str());
    return 2;
  }
  out << os.str() << "\n";
  std::printf("wrote %s\n", json_path.c_str());
  return deterministic ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json" && i + 1 < argc)
      return run_json_microset(argv[i + 1]);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
