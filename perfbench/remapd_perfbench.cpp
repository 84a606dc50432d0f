// Host-time benchmark of Remap-D: one faulty training epoch, evaluation
// throughput and fleet throughput, with a traced per-module breakdown.
//
//   remapd_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Every layer is measured from outside, by timing calls into its public
// functions; the only spans read are the ones the trainer already emits.
// The last stdout line is the result object (see README.md); the lines
// before it carry the host facts, the exact simulated counts and the
// per-check failure accounting.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "bist/controller.hpp"
#include "fleet/scheduler.hpp"
#include "nn/conv2d.hpp"
#include "nn/loss.hpp"
#include "telemetry/telemetry.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_int8.hpp"
#include "tensor/gemm_kernel.hpp"
#include "tensor/im2col.hpp"
#include "trainer/fault_aware_trainer.hpp"
#include "trainer/scenarios.hpp"
#include "util/parallel.hpp"

namespace {

using namespace remapd;
using Clock = std::chrono::steady_clock;

// Run shape. A run repeats whole trainings (repetition r uses seed
// derive_seed(seed, r)) rather than training more epochs: the
// post-deployment fault schedule is compressed to the epoch horizon, so
// more epochs would change the scenario.
constexpr std::size_t kEvalSamples = 1024;  // 16 batches of 64
constexpr std::size_t kEvalBatch = 64;      // evaluate_accuracy's default
constexpr std::size_t kEvalPasses = 2;      // per repetition
constexpr std::size_t kSetupRepeats = 7;     // extra set-ups per train run
// A fleet set-up takes microseconds, so each of its samples times a batch.
constexpr std::size_t kFleetSetupSamples = 31;
constexpr std::size_t kFleetSetupBatch = 64;

/// True while the timed loop should start repetition `r`: always for the
/// `fixed` repetitions, then while another one fits in the run's seconds.
bool another_rep(std::size_t r, std::size_t fixed, double elapsed,
                 double seconds) {
  if (r < fixed) return true;
  return elapsed + elapsed / static_cast<double>(r) <= seconds;
}

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/// Median seconds of `fn` over `reps` calls.
double time_median(std::size_t reps, const std::function<void()>& fn) {
  std::vector<double> t;
  for (std::size_t i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(secs_since(t0));
  }
  return median(t);
}

std::string num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string quote(const std::string& s) { return "\"" + s + "\""; }

/// Name -> (value, unit), printed in insertion order.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value))
      throw std::runtime_error("metric " + name + " is not finite");
    order_.push_back(name);
    items_[name] = {value, unit};
  }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (const std::string& n : order_) {
      const auto& [v, u] = items_.at(n);
      if (out.size() > 1) out += ", ";
      out += quote(n) + ": {\"value\": " + num(v) + ", \"unit\": " +
             quote(u) + "}";
    }
    return out + "}";
  }

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> items_;
};

/// Flat JSON object of exact (integer or string) facts.
class Record {
 public:
  void add(const std::string& k, std::uint64_t v) {
    fields_.emplace_back(k, std::to_string(v));
  }
  void add(const std::string& k, const std::string& v) {
    fields_.emplace_back(k, quote(v));
  }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (const auto& [k, v] : fields_) {
      if (out.size() > 1) out += ", ";
      out += quote(k) + ": " + v;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Per-check failure accounting: every checked operation is attempted once
/// and either passes or counts as failed.
class Checks {
 public:
  void check(const std::string& what, bool ok) {
    auto& [att, fail] = counts_[what];
    ++att;
    if (!ok) {
      ++fail;
      std::fprintf(stderr, "remapd_perfbench: check failed: %s\n",
                   what.c_str());
    }
  }
  [[nodiscard]] std::uint64_t attempted() const {
    std::uint64_t n = 0;
    for (const auto& [k, c] : counts_) n += c.first;
    return n;
  }
  [[nodiscard]] std::uint64_t failed() const {
    std::uint64_t n = 0;
    for (const auto& [k, c] : counts_) n += c.second;
    return n;
  }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (const auto& [k, c] : counts_) {
      if (out.size() > 1) out += ", ";
      out += quote(k) + ": {\"attempted\": " + std::to_string(c.first) +
             ", \"failed\": " + std::to_string(c.second) + "}";
    }
    return out + "}";
  }

 private:
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> counts_;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::size_t host_nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

// ---------------------------------------------------------------- workloads

/// The paper's headline configuration: ResNet-12 at its recommended size,
/// SAF scenario, Remap-D.
TrainerConfig fp32_config(std::uint64_t seed) {
  TrainerConfig cfg = recommended_config("resnet12");
  cfg.policy = "remap-d";
  cfg.seed = seed;
  apply_fault_model(cfg, "saf");
  return cfg;
}

/// Same model and data on 4-bit cells through the int8 path, with
/// transient upsets and the verify-and-refresh policy.
TrainerConfig int8_config(std::uint64_t seed) {
  TrainerConfig cfg = fp32_config(seed);
  cfg.policy = "refresh";
  cfg.quant.enabled = true;
  cfg.quant.cell_bits = 4;
  cfg.quant.int8_gemm = true;
  apply_fault_model(cfg, "saf+transient");
  return cfg;
}

struct Workload {
  const char* name;
  /// Training config for a seed; null for the fleet workload.
  TrainerConfig (*config)(std::uint64_t seed);
  std::size_t threads;  ///< REMAPD_THREADS for the run
  /// Repetitions whose outcomes feed final_test_acc and the exact counts.
  /// The timed loop may run more; these are fixed so both stay a pure
  /// function of the seed. Remap-D fp32 outcomes spread widely across
  /// seeds (0.58..0.98 at the recommended size), so its mean needs more.
  std::size_t fixed_reps;
};

// Every workload runs on one pool thread. On a shared 4-vCPU host, whole
// 4-thread trainings of the same config spread 0.74 (IQR/median, 20 runs)
// while 1-thread ones spread 0.13 in the same interleaved window: a stolen
// vCPU stalls every parallel region, so multi-thread timings there measure
// the neighbours, not the program.
constexpr Workload kWorkloads[] = {
    {"train-resnet12-fp32-1t", fp32_config, 1, 6},
    {"train-resnet12-int8-1t", int8_config, 1, 3},
    {"fleet-migrate-1t", nullptr, 1, 4},
};

/// Fleet job mix: fp32 and quantized jobs under several policies, fewer
/// jobs than chips so a free migration target always exists.
std::vector<fleet::JobSpec> fleet_jobs(std::uint64_t seed) {
  struct Mix {
    const char* policy;
    std::size_t cell_bits;
    bool int8;
  };
  const Mix mix[] = {{"remap-d", 0, false},
                     {"static", 4, true},
                     {"none", 4, false}};
  std::vector<fleet::JobSpec> jobs;
  for (std::size_t i = 0; i < std::size(mix); ++i) {
    fleet::JobSpec j;
    j.name = "job" + std::to_string(i);
    j.policy = mix[i].policy;
    j.cell_bits = mix[i].cell_bits;
    j.int8 = mix[i].int8;
    j.epochs = 4;
    j.train = 256;
    j.test = 128;
    j.seed = Rng::derive_seed(seed, i);
    jobs.push_back(std::move(j));
  }
  return jobs;
}

constexpr std::size_t kFleetChips = 6;

fleet::ChipPool fleet_pool(std::uint64_t seed) {
  std::vector<fleet::ChipSpec> specs;
  for (std::size_t c = 0; c < kFleetChips; ++c) {
    fleet::ChipSpec s;
    s.name = "chip" + std::to_string(c);
    s.seed = Rng::derive_seed(seed ^ 0x636869ull, c);
    // Even chips wear fast enough to trip health-driven migration.
    const bool worn = c % 2 == 0;
    s.native_fault_density = worn ? 0.002 : 0.0;
    s.wear_xbar_fraction = worn ? 0.2 : 0.01;
    s.wear_cell_fraction = worn ? 0.005 : 0.001;
    specs.push_back(s);
  }
  return fleet::ChipPool(std::move(specs));
}

fleet::SchedulerConfig fleet_sched_config() {
  fleet::SchedulerConfig cfg;
  cfg.policy = fleet::SchedPolicy::kPriority;
  cfg.force_migrate_at_epoch = 1;
  cfg.migrate_below = 0.8;
  return cfg;
}

// ----------------------------------------------------------------- helpers

bool same_history(const TrainResult& a, const TrainResult& b) {
  if (a.history.size() != b.history.size()) return false;
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    const EpochRecord& x = a.history[i];
    const EpochRecord& y = b.history[i];
    if (x.train_loss != y.train_loss || x.train_accuracy != y.train_accuracy ||
        x.test_accuracy != y.test_accuracy || x.remaps != y.remaps ||
        x.total_faults != y.total_faults || x.new_faults != y.new_faults ||
        x.bist_cycles != y.bist_cycles || x.new_upsets != y.new_upsets ||
        x.live_upsets != y.live_upsets ||
        x.refreshed_cells != y.refreshed_cells)
      return false;
  }
  return true;
}

/// Exact simulated statistics of one training result.
struct SimCounts {
  std::uint64_t epochs = 0, remaps = 0, bist_cycles = 0, total_faults = 0,
                live_upsets = 0, new_upsets = 0, refreshed_cells = 0;

  void add(const TrainResult& r) {
    epochs += r.history.size();
    remaps += r.total_remaps;
    for (const EpochRecord& e : r.history) {
      bist_cycles += e.bist_cycles;
      new_upsets += e.new_upsets;
      refreshed_cells += e.refreshed_cells;
    }
    if (!r.history.empty()) {
      total_faults += r.last().total_faults;
      live_upsets += r.last().live_upsets;
    }
  }
};

/// Trained-run outputs the benchmark checks: every epoch's loss is finite.
void check_epochs(Checks& checks, const TrainResult& r) {
  for (const EpochRecord& e : r.history)
    checks.check("epoch_finite_loss", std::isfinite(e.train_loss));
}

/// kEvalPasses timed evaluations of `model` (samples/s appended to
/// `rates`); the accuracy must repeat exactly.
void eval_passes(Model& model, const Dataset& eval, Checks& checks,
                 std::vector<double>& rates) {
  double first = -1.0;
  for (std::size_t i = 0; i < kEvalPasses; ++i) {
    const auto t0 = Clock::now();
    const double acc = evaluate_accuracy(model, eval, kEvalBatch);
    rates.push_back(static_cast<double>(eval.size()) / secs_since(t0));
    if (first < 0.0) first = acc;
    checks.check("eval_repeatable", acc == first && acc >= 0.0 && acc <= 1.0);
  }
}

Dataset eval_set(std::uint64_t seed) {
  SynthSpec s;
  s.train = 1;
  s.test = kEvalSamples;
  s.seed = Rng::derive_seed(seed, 0x6576616cull);  // "eval"
  return make_synthetic(s).test;
}

// ---------------------------------------------------------------- tracing

/// Trainer phase breakdown from the spans the trainer emits: per-epoch
/// sums of each direct child of an "epoch" span, plus the array writes
/// nested inside "sgd-step".
struct PhaseSums {
  std::map<std::string, double> ms;  // phase -> total ms over epochs
  double epoch_ms = 0.0;             // total over epochs
  std::size_t epochs = 0;
  double remap_round_ms = 0.0;  // every "remap" span, placement included
  std::size_t remap_rounds = 0;
  double array_write_ms = 0.0;  // every "array-write" span
  std::size_t array_writes = 0;
};

PhaseSums phase_sums(const std::vector<telemetry::TraceEvent>& evs) {
  PhaseSums p;
  std::vector<const telemetry::TraceEvent*> epochs;
  for (const auto& e : evs) {
    if (e.ph != 'X' || e.cat != "trainer") continue;
    if (e.name == "epoch") epochs.push_back(&e);
    if (e.name == "remap") {
      p.remap_round_ms += static_cast<double>(e.dur_ns) / 1e6;
      ++p.remap_rounds;
    }
    if (e.name == "array-write") {
      p.array_write_ms += static_cast<double>(e.dur_ns) / 1e6;
      ++p.array_writes;
    }
  }
  for (const auto* ep : epochs) {
    p.epoch_ms += static_cast<double>(ep->dur_ns) / 1e6;
    ++p.epochs;
    const std::uint64_t end = ep->ts_ns + ep->dur_ns;
    for (const auto& e : evs) {
      if (e.ph != 'X' || e.cat != "trainer" || e.tid != ep->tid ||
          e.ts_ns < ep->ts_ns || e.ts_ns + e.dur_ns > end)
        continue;
      const double ms = static_cast<double>(e.dur_ns) / 1e6;
      if (e.depth == ep->depth + 1) {
        p.ms[e.name] += ms;
      } else if (e.depth == ep->depth + 2 && e.name == "array-write") {
        // Nested in sgd-step: report it separately, sgd-step as self time.
        p.ms["array-write"] += ms;
        p.ms["sgd-step"] -= ms;
      }
    }
  }
  return p;
}

std::uint64_t counter_total(const telemetry::RegistrySnapshot& s,
                            const std::string& name) {
  // Job-labelled runs qualify names as "job:<name>/<metric>".
  std::uint64_t n = 0;
  for (const auto& [k, v] : s.counters)
    if (k == name || (k.size() > name.size() &&
                      k.compare(k.size() - name.size() - 1,
                                std::string::npos, "/" + name) == 0))
      n += v;
  return n;
}

/// Enables telemetry for its lifetime on a clean buffer and registry.
class TraceScope {
 public:
  TraceScope() {
    telemetry::TraceBuffer::instance().clear();
    telemetry::Registry::instance().reset();
    telemetry::set_enabled(true);
  }
  ~TraceScope() { telemetry::set_enabled(false); }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;
};

void add_trainer_phases(Metrics& m, const PhaseSums& p) {
  const double n = static_cast<double>(std::max<std::size_t>(p.epochs, 1));
  const std::pair<const char*, const char*> phases[] = {
      {"forward", "trainer.forward_ms"},
      {"backward", "trainer.backward_ms"},
      {"sgd-step", "trainer.sgd_step_ms"},
      {"array-write", "trainer.array_write_ms"},
      {"bist-survey", "trainer.bist_survey_ms"},
      {"remap", "trainer.remap_ms"},
      {"view-refresh", "trainer.view_refresh_ms"},
      {"evaluate", "trainer.evaluate_ms"},
  };
  double attributed = 0.0;
  for (const auto& [span, metric] : phases) {
    const auto it = p.ms.find(span);
    const double v = it == p.ms.end() ? 0.0 : it->second / n;
    attributed += v;
    m.add(metric, v, "ms");
  }
  m.add("trainer.unattributed_ms", p.epoch_ms / n - attributed, "ms");
  m.add("trainer.epoch_ms", p.epoch_ms / n, "ms");
}

// ---------------------------------------------------- layer microbenchmarks

/// One conv layer's lowering, derived from public accessors and the
/// observed input/output shape of the top-level child that contains it.
struct ConvShape {
  ConvGeom geom;
  std::size_t out_ch;
  const Tensor* weights;
};

std::vector<ConvShape> conv_shapes(Model& model, const Tensor& batch) {
  std::vector<ConvShape> shapes;
  Tensor x = batch;
  for (const LayerPtr& child : model.net->children()) {
    Tensor y = child->forward(x, /*train=*/false);
    if (x.shape().rank() == 4 && y.shape().rank() == 4) {
      const std::size_t in_c = x.shape()[1], in_h = x.shape()[2];
      const std::size_t out_h = y.shape()[2];
      child->visit([&](Layer& l) {
        auto* conv = dynamic_cast<Conv2d*>(&l);
        if (!conv) return;
        // A conv reading the child's input sees its spatial size; one
        // reading an intermediate map sees the child's output size. Every
        // conv of a child produces the child's output size.
        const std::size_t h = conv->in_channels() == in_c ? in_h : out_h;
        const std::size_t k = conv->kernel();
        ConvGeom g{conv->in_channels(), h, h, k, k, h / out_h, k / 2};
        if (g.out_h() != out_h)
          throw std::runtime_error("cannot derive geometry of " +
                                   conv->name());
        shapes.push_back({g, conv->out_channels(),
                          &conv->weight_param().value});
      });
    }
    x = std::move(y);
  }
  return shapes;
}

/// GFLOP/s of the fp32 gemm() and the int8 entry point at the per-sample
/// conv GEMM shapes (M = C_out, K = C_in*k*k, N = OH*OW), plus the median
/// im2col time of one `batch_size`-sample batch through every conv.
void kernel_metrics(Metrics& m, const std::vector<ConvShape>& shapes,
                    std::size_t batch_size) {
  constexpr double kBudget = 0.4;  // seconds per kernel
  std::vector<std::vector<float>> cols;
  for (const ConvShape& s : shapes) {
    std::vector<float> col(s.geom.col_rows() * s.geom.col_cols());
    for (std::size_t i = 0; i < col.size(); ++i)
      col[i] = static_cast<float>((i * 2654435761u) % 1000) / 500.0f - 1.0f;
    cols.push_back(std::move(col));
  }

  double flops_per_pass = 0.0;
  for (const ConvShape& s : shapes)
    flops_per_pass += 2.0 * static_cast<double>(s.out_ch) *
                      static_cast<double>(s.geom.col_rows()) *
                      static_cast<double>(s.geom.col_cols());

  auto gflops = [&](const std::function<void()>& pass) {
    std::vector<double> rates;
    const auto t0 = Clock::now();
    while (secs_since(t0) < kBudget || rates.size() < 5) {
      const auto p0 = Clock::now();
      pass();
      rates.push_back(flops_per_pass / secs_since(p0) / 1e9);
    }
    return median(rates);
  };

  std::vector<std::vector<float>> outs;
  for (const ConvShape& s : shapes)
    outs.emplace_back(s.out_ch * s.geom.col_cols());
  m.add("tensor.gemm.gflops", gflops([&] {
          for (std::size_t i = 0; i < shapes.size(); ++i) {
            const ConvShape& s = shapes[i];
            gemm(false, false, s.out_ch, s.geom.col_cols(), s.geom.col_rows(),
                 1.0f, s.weights->data(), s.geom.col_rows(), cols[i].data(),
                 s.geom.col_cols(), 0.0f, outs[i].data(), s.geom.col_cols());
          }
        }),
        "GFLOP/s");

  std::vector<Int8APack> packs(shapes.size());
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const ConvShape& s = shapes[i];
    float maxabs = 0.0f;
    for (std::size_t j = 0; j < s.weights->numel(); ++j)
      maxabs = std::max(maxabs, std::abs((*s.weights)[j]));
    packs[i].pack(s.out_ch, s.geom.col_rows(),
                  StridedOperand{s.weights->data(), s.geom.col_rows(), 1},
                  std::max(maxabs, 1e-6f) / 15.0f);  // 4-bit level grid
  }
  bool int8_ok = true;
  m.add("tensor.gemm_int8.gflops", gflops([&] {
          for (std::size_t i = 0; i < shapes.size(); ++i) {
            const std::size_t n = shapes[i].geom.col_cols();
            int8_ok &= packs[i].multiply(
                n, StridedOperand{cols[i].data(), n, 1}, outs[i].data(), n);
          }
        }),
        "GFLOP/s");
  if (!int8_ok) throw std::runtime_error("int8 path refused finite input");

  // One training batch through every conv: im2col reads the sample, so
  // its cost depends on the geometry only; a constant image suffices.
  std::vector<std::vector<float>> imgs;
  for (const ConvShape& s : shapes)
    imgs.emplace_back(s.geom.channels * s.geom.height * s.geom.width, 0.5f);
  m.add("tensor.im2col_ms",
        1e3 * time_median(15, [&] {
          for (std::size_t i = 0; i < shapes.size(); ++i)
            for (std::size_t s = 0; s < batch_size; ++s)
              im2col(imgs[i].data(), shapes[i].geom, cols[i].data());
        }),
        "ms");
}

/// Per top-level child of Model::net: forward and backward time on a
/// training batch through the installed fault views, plus the loss.
void nn_metrics(Metrics& m, Model& model, const Batch& batch) {
  constexpr std::size_t kReps = 7;
  const auto& children = model.net->children();
  std::vector<std::vector<double>> fwd(children.size()), bwd(children.size());
  std::vector<double> loss;
  for (std::size_t r = 0; r < kReps; ++r) {
    Tensor x = batch.images;
    for (std::size_t c = 0; c < children.size(); ++c) {
      const auto t0 = Clock::now();
      x = children[c]->forward(x, /*train=*/true);
      fwd[c].push_back(secs_since(t0));
    }
    const auto t0 = Clock::now();
    LossResult lr = softmax_cross_entropy(x, batch.labels);
    loss.push_back(secs_since(t0));
    Tensor dy = std::move(lr.dlogits);
    for (std::size_t c = children.size(); c-- > 0;) {
      const auto t1 = Clock::now();
      dy = children[c]->backward(dy);
      bwd[c].push_back(secs_since(t1));
    }
  }
  for (std::size_t c = 0; c < children.size(); ++c) {
    const std::string p = "nn.block" + std::to_string(c);
    m.add(p + ".fwd_ms", 1e3 * median(fwd[c]), "ms");
    m.add(p + ".bwd_ms", 1e3 * median(bwd[c]), "ms");
  }
  m.add("nn.loss_ms", 1e3 * median(loss), "ms");
}

/// Checkpoint save and restore of a trained trainer; the restored state
/// must save back to the identical image.
void ckpt_metrics(Metrics& m, FaultAwareTrainer& trained, Checks& checks) {
  constexpr std::size_t kReps = 5;
  std::string image;
  const double save = time_median(kReps, [&] {
    image = trained.save_checkpoint_bytes();
  });
  std::vector<double> restores;
  for (std::size_t r = 0; r < kReps; ++r) {
    FaultAwareTrainer fresh(trained.config());
    const auto t0 = Clock::now();
    fresh.restore_from_bytes(image);
    restores.push_back(secs_since(t0));
    if (r == 0)
      checks.check("ckpt_round_trip", fresh.save_checkpoint_bytes() == image);
  }
  m.add("ckpt.save_ms", 1e3 * save, "ms");
  m.add("ckpt.restore_ms", 1e3 * median(restores), "ms");
  m.add("ckpt.image_bytes", static_cast<double>(image.size()), "bytes");
}

/// Median ms of constructing + deploying a trainer for a fleet job spec.
double bind_ms(const fleet::JobSpec& spec) {
  return 1e3 * time_median(5, [&] {
    FaultAwareTrainer t(spec.trainer_config());
    t.begin_training();
  });
}

double synth_ms(const SynthSpec& spec) {
  return 1e3 * time_median(7, [&] { (void)make_synthetic(spec); });
}

/// The layer metrics shared by every workload, measured on one trained
/// trainer of the workload.
void layer_metrics(Metrics& m, FaultAwareTrainer& trained,
                   const fleet::JobSpec& bind_spec, const Dataset& eval,
                   Checks& checks) {
  ckpt_metrics(m, trained, checks);
  const BistController bist;
  m.add("bist.survey_ms",
        1e3 * time_median(7, [&] { (void)bist.survey(trained.rcs()); }),
        "ms");
  // A training batch: the first batch_size samples of the eval set.
  const std::size_t bs = trained.config().batch_size;
  const Shape& shape = eval.images.shape();
  Batch batch{Tensor(Shape{bs, shape[1], shape[2], shape[3]}),
              {eval.labels.begin(), eval.labels.begin() + bs}};
  std::copy(eval.images.data(), eval.images.data() + batch.images.numel(),
            batch.images.data());
  nn_metrics(m, trained.model(), batch);
  kernel_metrics(m, conv_shapes(trained.model(), batch.images), bs);
  m.add("fleet.bind_ms", bind_ms(bind_spec), "ms");
  SynthSpec s = trained.config().data;
  s.seed = trained.config().seed;
  m.add("data.synth_ms", synth_ms(s), "ms");
}

// ---------------------------------------------------------------- runners

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

struct Outcome {
  Metrics metrics;
  Record exact;
  Checks checks;
};

/// One training repetition: timed set-up, then one timed epoch per
/// run_slice(1).
struct TrainRep {
  std::unique_ptr<FaultAwareTrainer> trainer;
  double setup_s = 0.0;
  std::vector<double> epoch_s;
  double wall_s = 0.0;
};

TrainRep train_rep(const TrainerConfig& cfg) {
  TrainRep rep;
  const auto t0 = Clock::now();
  rep.trainer = std::make_unique<FaultAwareTrainer>(cfg);
  rep.trainer->begin_training();
  rep.setup_s = secs_since(t0);
  while (!rep.trainer->finished()) {
    const auto e0 = Clock::now();
    rep.trainer->run_slice(1);
    rep.epoch_s.push_back(secs_since(e0));
  }
  rep.wall_s = secs_since(t0);
  return rep;
}

fleet::JobSpec bind_spec_for(const TrainerConfig& cfg) {
  fleet::JobSpec j;
  j.name = "bind";
  j.policy = cfg.policy;
  j.epochs = cfg.epochs;
  j.train = cfg.data.train;
  j.test = cfg.data.test;
  j.seed = cfg.seed;
  j.cell_bits = cfg.quant.enabled ? cfg.quant.cell_bits : 0;
  j.int8 = cfg.quant.int8_gemm;
  return j;
}

void add_counts(Record& r, const SimCounts& c) {
  r.add("epochs", c.epochs);
  r.add("core.remaps", c.remaps);
  r.add("bist.cycles", c.bist_cycles);
  r.add("xbar.total_faults", c.total_faults);
  r.add("xbar.new_upsets", c.new_upsets);
  r.add("xbar.live_upsets", c.live_upsets);
  r.add("core.refreshed_cells", c.refreshed_cells);
}

void add_count_metrics(Metrics& m, const SimCounts& c) {
  m.add("xbar.total_faults", static_cast<double>(c.total_faults), "count");
  m.add("xbar.live_upsets", static_cast<double>(c.live_upsets), "count");
  m.add("bist.cycles", static_cast<double>(c.bist_cycles), "cycles");
  m.add("core.remaps", static_cast<double>(c.remaps), "count");
  m.add("core.refreshed_cells", static_cast<double>(c.refreshed_cells),
        "count");
}

/// Metrics and exact counts of one traced run: the trainer phases, GEMM
/// counters, array-write and remap span means, and the simulated counts.
void add_traced(Outcome& out, const std::vector<telemetry::TraceEvent>& events,
                const telemetry::RegistrySnapshot& reg, const SimCounts& c,
                double traced_epoch_s, double untraced_epoch_s,
                std::uint64_t migrations,
                std::uint64_t steps) {
  Metrics& m = out.metrics;
  const PhaseSums p = phase_sums(events);
  add_trainer_phases(m, p);
  m.add("trace_overhead_frac", traced_epoch_s / untraced_epoch_s - 1.0,
        "frac");
  const std::uint64_t epochs = std::max<std::size_t>(p.epochs, 1);
  const std::uint64_t calls = counter_total(reg, "tensor.gemm.calls");
  const std::uint64_t flops = counter_total(reg, "tensor.gemm.flops");
  m.add("tensor.gemm.calls", static_cast<double>(calls) / epochs, "count");
  m.add("tensor.gemm.flops", static_cast<double>(flops) / epochs, "flop");
  m.add("quant.array_write_ms",
        p.array_writes ? p.array_write_ms / p.array_writes : 0.0, "ms");
  m.add("core.remap_ms",
        p.remap_rounds ? p.remap_round_ms / p.remap_rounds : 0.0, "ms");
  add_count_metrics(m, c);
  m.add("fleet.migrations", static_cast<double>(migrations), "count");
  m.add("fleet.steps", static_cast<double>(steps), "count");

  out.exact.add("tensor.gemm.calls_per_epoch", calls / epochs);
  out.exact.add("tensor.gemm.flops_per_epoch", flops / epochs);
  out.exact.add("nn.conv.fused_flops_per_epoch",
                counter_total(reg, "nn.conv.fused_flops") / epochs);
  out.exact.add("nn.conv.int8_flops_per_epoch",
                counter_total(reg, "nn.conv.int8_flops") / epochs);
  add_counts(out.exact, c);
  out.exact.add("fleet.migrations", migrations);
  out.exact.add("fleet.steps", steps);
}

void run_train(const Workload& w, const Args& a, Outcome& out) {
  Metrics& m = out.metrics;
  Checks& checks = out.checks;
  const Dataset eval = eval_set(a.seed);
  auto rep_config = [&](std::size_t r) {
    return w.config(Rng::derive_seed(a.seed, r));
  };

  if (a.trace) {
    // Untraced and traced runs of the same seed must agree epoch by epoch.
    const TrainRep plain = train_rep(rep_config(0));
    check_epochs(checks, plain.trainer->result());
    TrainRep traced;
    std::vector<telemetry::TraceEvent> events;
    telemetry::RegistrySnapshot reg;
    {
      TraceScope scope;
      traced = train_rep(rep_config(0));
      events = telemetry::TraceBuffer::instance().snapshot();
      reg = telemetry::Registry::instance().snapshot();
    }
    checks.check("trace_preserves_history",
                 same_history(plain.trainer->result(),
                              traced.trainer->result()));
    SimCounts c;
    c.add(traced.trainer->result());
    add_traced(out, events, reg, c, median(traced.epoch_s),
               median(plain.epoch_s), 0, 0);
    layer_metrics(m, *traced.trainer, bind_spec_for(traced.trainer->config()),
                  eval, checks);
    return;
  }

  std::vector<double> setups, epochs, jobs_per_min, accs;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    const auto t0 = Clock::now();
    FaultAwareTrainer t(rep_config(1000 + i));
    t.begin_training();
    setups.push_back(secs_since(t0));
  }
  SimCounts counts;
  std::vector<double> eval_rates;
  const auto t0 = Clock::now();
  for (std::size_t r = 0; another_rep(r, w.fixed_reps, secs_since(t0),
                                      a.seconds);
       ++r) {
    TrainRep rep = train_rep(rep_config(r));
    check_epochs(checks, rep.trainer->result());
    setups.push_back(rep.setup_s);
    epochs.insert(epochs.end(), rep.epoch_s.begin(), rep.epoch_s.end());
    jobs_per_min.push_back(60.0 / rep.wall_s);
    if (r < w.fixed_reps) {
      accs.push_back(rep.trainer->result().final_test_accuracy);
      counts.add(rep.trainer->result());
    }
    eval_passes(rep.trainer->model(), eval, checks, eval_rates);
  }
  m.add("epoch_s", median(epochs), "s");
  m.add("eval_samples_per_s", median(eval_rates), "samples/s");
  m.add("jobs_per_min", median(jobs_per_min), "jobs/min");
  m.add("setup_s", median(setups), "s");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
  m.add("final_test_acc", mean(accs), "frac");
  add_counts(out.exact, counts);
}

/// One fleet repetition: pool + scheduler + submissions, then a timed
/// Scheduler::run().
struct FleetRep {
  std::unique_ptr<fleet::ChipPool> pool;
  std::unique_ptr<fleet::Scheduler> sched;
  fleet::FleetSummary summary;
  double run_s = 0.0;
};

FleetRep fleet_rep(std::uint64_t seed) {
  FleetRep rep;
  rep.pool = std::make_unique<fleet::ChipPool>(fleet_pool(seed));
  rep.sched =
      std::make_unique<fleet::Scheduler>(*rep.pool, fleet_sched_config());
  for (fleet::JobSpec& j : fleet_jobs(seed)) rep.sched->submit(std::move(j));
  const auto t0 = Clock::now();
  rep.summary = rep.sched->run();
  rep.run_s = secs_since(t0);
  return rep;
}

/// Fleet outputs the benchmark checks: every job completes with finite
/// losses, and the run migrates at least once.
void check_fleet(Checks& checks, const FleetRep& rep) {
  for (const fleet::FleetJob& j : rep.sched->jobs()) {
    checks.check("fleet_job_completed",
                 j.state == fleet::JobState::kCompleted);
    if (j.trainer) check_epochs(checks, j.trainer->result());
  }
  checks.check("fleet_migrated", rep.summary.migrations >= 1);
}

void add_fleet_counts(SimCounts& c, const FleetRep& rep) {
  for (const fleet::FleetJob& j : rep.sched->jobs())
    if (j.trainer) c.add(j.trainer->result());
}

/// Per job, busy seconds per slice. A slice is one epoch (slice_epochs = 1)
/// plus the chip's wear and health bookkeeping; migrations happen between
/// slices.
std::vector<double> job_epoch_s(const FleetRep& rep) {
  std::vector<double> e;
  for (const fleet::FleetJob& j : rep.sched->jobs())
    e.push_back(j.busy_seconds / static_cast<double>(j.slices));
  return e;
}

double fleet_mean_acc(const FleetRep& rep) {
  std::vector<double> acc;
  for (const fleet::FleetJob& j : rep.sched->jobs())
    if (j.trainer) acc.push_back(j.trainer->result().final_test_accuracy);
  return mean(acc);
}

void run_fleet(const Workload& w, const Args& a, Outcome& out) {
  Metrics& m = out.metrics;
  Checks& checks = out.checks;
  const Dataset eval = eval_set(a.seed);
  auto rep_seed = [&](std::size_t r) { return Rng::derive_seed(a.seed, r); };

  if (a.trace) {
    const FleetRep plain = fleet_rep(rep_seed(0));
    check_fleet(checks, plain);
    FleetRep traced;
    std::vector<telemetry::TraceEvent> events;
    telemetry::RegistrySnapshot reg;
    {
      TraceScope scope;
      traced = fleet_rep(rep_seed(0));
      events = telemetry::TraceBuffer::instance().snapshot();
      reg = telemetry::Registry::instance().snapshot();
    }
    check_fleet(checks, traced);
    const auto& pj = plain.sched->jobs();
    const auto& tj = traced.sched->jobs();
    for (std::size_t i = 0; i < pj.size(); ++i)
      checks.check("trace_preserves_history",
                   pj[i].trainer && tj[i].trainer &&
                       same_history(pj[i].trainer->result(),
                                    tj[i].trainer->result()));
    SimCounts c;
    add_fleet_counts(c, traced);
    add_traced(out, events, reg, c, median(job_epoch_s(traced)),
               median(job_epoch_s(plain)), traced.summary.migrations,
               traced.summary.steps);
    const fleet::FleetJob& job0 = tj.front();
    layer_metrics(m, *job0.trainer, job0.spec, eval, checks);
    return;
  }

  std::vector<double> setups, epochs, jobs_per_min, accs;
  for (std::size_t i = 0; i < kFleetSetupSamples; ++i) {
    const auto t0 = Clock::now();
    for (std::size_t b = 0; b < kFleetSetupBatch; ++b) {
      const std::uint64_t seed = rep_seed(1000 + i * kFleetSetupBatch + b);
      fleet::ChipPool pool = fleet_pool(seed);
      fleet::Scheduler sched(pool, fleet_sched_config());
      for (fleet::JobSpec& j : fleet_jobs(seed)) sched.submit(std::move(j));
    }
    setups.push_back(secs_since(t0) / kFleetSetupBatch);
  }
  SimCounts counts;
  std::uint64_t migrations = 0, steps = 0;
  std::vector<double> eval_rates;
  const auto t0 = Clock::now();
  for (std::size_t r = 0; another_rep(r, w.fixed_reps, secs_since(t0),
                                      a.seconds);
       ++r) {
    FleetRep rep = fleet_rep(rep_seed(r));
    check_fleet(checks, rep);
    const std::vector<double> e = job_epoch_s(rep);
    epochs.insert(epochs.end(), e.begin(), e.end());
    jobs_per_min.push_back(static_cast<double>(rep.summary.completed) /
                           (rep.run_s / 60.0));
    if (r < w.fixed_reps) {
      accs.push_back(fleet_mean_acc(rep));
      add_fleet_counts(counts, rep);
      migrations += rep.summary.migrations;
      steps += rep.summary.steps;
    }
    eval_passes(rep.sched->jobs().front().trainer->model(), eval, checks,
                eval_rates);
  }
  m.add("epoch_s", median(epochs), "s");
  m.add("eval_samples_per_s", median(eval_rates), "samples/s");
  m.add("jobs_per_min", median(jobs_per_min), "jobs/min");
  m.add("setup_s", median(setups), "s");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
  m.add("final_test_acc", mean(accs), "frac");
  add_counts(out.exact, counts);
  out.exact.add("fleet.migrations", migrations);
  out.exact.add("fleet.steps", steps);
}

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr,
               "remapd_perfbench: %s\nusage: remapd_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1\n",
               msg.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
      have[0] = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end || v[0] == '-') usage("bad --seed " + v);
      have[1] = true;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end || !(a.seconds > 0.0) || a.seconds > 600.0)
        usage("bad --seconds " + v);
      have[2] = true;
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("bad --trace " + v);
      a.trace = v == "1";
      have[3] = true;
    } else {
      usage("unknown flag " + flag);
    }
  }
  for (bool h : have)
    if (!h) usage("all four flags are required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads)
    if (a.workload == cand.name) w = &cand;
  if (!w) usage("unknown workload " + a.workload);

  const std::size_t nproc = host_nproc();
  if (w->threads > nproc) {
    std::fprintf(stderr,
                 "remapd_perfbench: workload %s needs %zu threads but the "
                 "host has %zu; refusing to measure oversubscription\n",
                 w->name, w->threads, nproc);
    return 3;
  }
  set_parallel_threads(w->threads);

  Outcome out;
  try {
    if (w->config)
      run_train(*w, a, out);
    else
      run_fleet(*w, a, out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "remapd_perfbench: %s\n", e.what());
    return 1;
  }

  Record host;
  host.add("nproc", nproc);
  host.add("remapd_threads", parallel_threads());
  host.add("fp32_kernel", gemm_kernel_name());
  host.add("int8_kernel", int8_kernel_name());
  host.add("build_type", PERFBENCH_BUILD_TYPE);
  host.add("eval_branch", kEvalSamples / kEvalBatch >= parallel_threads()
                              ? "batch-parallel"
                              : "per-sample");
  std::printf("host %s\n", host.json().c_str());
  std::printf("exact %s\n", out.exact.json().c_str());
  std::printf("checks %s\n", out.checks.json().c_str());
  const std::uint64_t failed = out.checks.failed();
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(out.checks.attempted()),
      static_cast<unsigned long long>(failed), out.metrics.json().c_str());
  return 0;
}
