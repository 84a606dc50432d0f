// General experiment runner: every knob of the fault-aware trainer behind
// command-line flags, with CSV output — the tool for running custom
// configurations beyond the prebuilt figure benches.
//
// Usage: remapd_experiment [--flag value]...
//   --model NAME        vgg11|vgg16|vgg19|resnet12|resnet18|squeezenet —
//                       the base config; applied before every other flag,
//                       wherever it appears
//   --policy NAME       none|an-code|static|remap-ws|remap-t-5|remap-t-10|
//                       remap-d|refresh|xchangr|drop-connect
//   --fault-model NAME  saf|transient|ir-drop|saf+transient|saf+ir-drop|
//                       ideal — scenario
//                       preset (trainer/scenarios.hpp). Applied after every
//                       other flag so the SAF wear rate is derived from the
//                       final epoch count.
//   --list-policies     print the policy registry and exit
//   --list-fault-models print the fault-model registry and exit
//   --dataset NAME      cifar10|cifar100|svhn
//   --epochs N          training epochs (default 8)
//   --train N           training samples (default 256)
//   --test N            test samples (default 128)
//   --seed N            RNG seed (default 42)
//   --ideal             disable all faults
//   --pre-high PCT      high-band pre-deployment density, e.g. 1.0 (%)
//   --post-m PCT        new faulty cells per selected crossbar per epoch (%)
//   --post-n PCT        crossbars gaining faults per epoch (%)
//   --phase NAME        all|forward|backward (Fig. 5-style targeting)
//   --mapping NAME      single|differential
//   --cell-bits N       quantize cells to N-bit levels (1..4; default fp32)
//   --quant-noise S     programming-noise sigma in level units (default 0)
//   --int8              route layer MVMs through the int8 GEMM fast path
//                       (requires --cell-bits)
//   --csv PATH          append per-epoch records to a CSV file
//   --checkpoint PATH   save a checkpoint here (default: every epoch)
//   --checkpoint-every N  save every N epochs instead
//   --stop-after N      stop cleanly after N epochs (for interrupt tests)
//   --resume PATH       restore a checkpoint and continue the run; the
//                       other flags must match the interrupted leg exactly
//
// Flags are the only configuration: the REMAPD_EPOCHS / REMAPD_TRAIN /
// REMAPD_TEST bench overrides are not read here. A numeric flag takes a
// plain non-negative decimal; anything else exits 2 naming the flag.

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "obs/report.hpp"
#include "telemetry/telemetry.hpp"
#include "trainer/fault_aware_trainer.hpp"
#include "trainer/scenarios.hpp"
#include "util/csv.hpp"
#include "util/env.hpp"

namespace {

using namespace remapd;

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "remapd_experiment: %s (see header for flags)\n", msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  // --model picks the base config, so it applies first wherever it
  // appears; every other flag then edits that config in order.
  std::string model = "resnet12";
  for (int i = 1; i + 1 < argc; ++i)
    if (std::string(argv[i]) == "--model") model = argv[++i];
  TrainerConfig cfg = recommended_config(model);
  cfg.faults = FaultScenario::paper_default_compressed(cfg.epochs);
  std::string csv_path;
  std::string fault_model;
  bool ideal = false;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    auto uint_arg = [&]() -> std::uint64_t {
      const char* v = next();
      try {
        return parse_uint(flag, v);
      } catch (const std::runtime_error& e) {
        usage(e.what());
      }
    };
    auto nonneg_arg = [&]() -> double {
      const char* v = next();
      try {
        return parse_nonneg(flag, v);
      } catch (const std::runtime_error& e) {
        usage(e.what());
      }
    };
    auto count = [&] { return static_cast<std::size_t>(uint_arg()); };
    auto percent = [&] { return nonneg_arg() / 100.0; };
    if (flag == "--list-policies") {
      for (const PolicySpec& s : policy_registry())
        std::printf("%-12s %s\n", s.name.c_str(), s.summary.c_str());
      return 0;
    } else if (flag == "--list-fault-models") {
      for (const FaultModelSpec& s : fault_model_registry())
        std::printf("%-14s %s\n", s.name.c_str(), s.summary.c_str());
      return 0;
    } else if (flag == "--fault-model") {
      fault_model = next();  // applied last, once epochs are final
    } else if (flag == "--model") {
      next();  // applied before the loop
    } else if (flag == "--policy") {
      cfg.policy = next();
    } else if (flag == "--dataset") {
      const std::string d = next();
      if (d == "cifar10") cfg.data.kind = SynthKind::kCifar10;
      else if (d == "cifar100") cfg.data.kind = SynthKind::kCifar100;
      else if (d == "svhn") cfg.data.kind = SynthKind::kSvhn;
      else usage("unknown dataset");
    } else if (flag == "--epochs") {
      cfg.epochs = count();
    } else if (flag == "--train") {
      cfg.data.train = count();
    } else if (flag == "--test") {
      cfg.data.test = count();
    } else if (flag == "--seed") {
      cfg.seed = uint_arg();
    } else if (flag == "--ideal") {
      ideal = true;
    } else if (flag == "--pre-high") {
      cfg.faults.high_density_hi = percent();
      cfg.faults.high_density_lo = cfg.faults.high_density_hi * 0.4;
    } else if (flag == "--post-m") {
      cfg.faults.post_cell_fraction = percent();
    } else if (flag == "--post-n") {
      cfg.faults.post_xbar_fraction = percent();
    } else if (flag == "--phase") {
      const std::string p = next();
      if (p == "all") cfg.fault_target = PhaseFaultTarget::kAll;
      else if (p == "forward") cfg.fault_target = PhaseFaultTarget::kForwardOnly;
      else if (p == "backward") cfg.fault_target = PhaseFaultTarget::kBackwardOnly;
      else usage("unknown phase");
    } else if (flag == "--mapping") {
      const std::string m = next();
      if (m == "single") cfg.mapping = MappingMode::kSingleArrayBias;
      else if (m == "differential") cfg.mapping = MappingMode::kDifferentialPair;
      else usage("unknown mapping");
    } else if (flag == "--cell-bits") {
      cfg.quant.enabled = true;
      cfg.quant.cell_bits = count();
    } else if (flag == "--quant-noise") {
      cfg.quant.program_noise_sigma = nonneg_arg();
    } else if (flag == "--int8") {
      cfg.quant.int8_gemm = true;
    } else if (flag == "--csv") {
      csv_path = next();
    } else if (flag == "--checkpoint") {
      cfg.checkpoint_path = next();
      if (cfg.checkpoint_every == 0) cfg.checkpoint_every = 1;
    } else if (flag == "--checkpoint-every") {
      cfg.checkpoint_every = count();
    } else if (flag == "--stop-after") {
      cfg.stop_after_epochs = count();
    } else if (flag == "--resume") {
      cfg.resume_from = next();
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (ideal) cfg.faults = FaultScenario::ideal();
  if (cfg.quant.int8_gemm && !cfg.quant.enabled)
    usage("--int8 requires --cell-bits");
  try {
    cfg.quant.validate();
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
  if (!fault_model.empty()) {
    try {
      apply_fault_model(cfg, fault_model);
    } catch (const std::invalid_argument& e) {
      usage(e.what());
    }
  }

  std::printf("model=%s policy=%s dataset=%s epochs=%zu seed=%llu\n",
              cfg.model.c_str(), cfg.policy.c_str(),
              synth_name(cfg.data.kind), cfg.epochs,
              static_cast<unsigned long long>(cfg.seed));
  if (cfg.quant.enabled)
    std::printf("quant: cell_bits=%zu noise=%g int8=%d\n",
                cfg.quant.cell_bits, cfg.quant.program_noise_sigma,
                cfg.quant.int8_gemm ? 1 : 0);

  const TrainResult r = train_with_faults(cfg);
  std::printf("%6s %10s %10s %10s %8s %10s %10s %8s %10s\n", "epoch", "loss",
              "train_acc", "test_acc", "remaps", "faults", "new_faults",
              "upsets", "refreshed");
  for (const EpochRecord& e : r.history)
    std::printf("%6zu %10.4f %10.3f %10.3f %8zu %10zu %10zu %8zu %10zu\n",
                e.epoch, e.train_loss, e.train_accuracy, e.test_accuracy,
                e.remaps, e.total_faults, e.new_faults, e.live_upsets,
                e.refreshed_cells);
  std::printf("final accuracy %.3f, total remaps %zu\n",
              r.final_test_accuracy, r.total_remaps);

  if (!csv_path.empty()) {
    CsvWriter csv(csv_path);
    csv.header({"model", "policy", "dataset", "epoch", "loss", "train_acc",
                "test_acc", "remaps", "faults", "new_faults", "new_upsets",
                "live_upsets", "refreshed_cells", "refresh_cycles",
                "cell_bits", "int8"});
    const std::size_t cell_bits = cfg.quant.enabled ? cfg.quant.cell_bits : 0;
    for (const EpochRecord& e : r.history)
      csv.row(cfg.model, cfg.policy, synth_name(cfg.data.kind), e.epoch,
              e.train_loss, e.train_accuracy, e.test_accuracy, e.remaps,
              e.total_faults, e.new_faults, e.new_upsets, e.live_upsets,
              e.refreshed_cells, e.refresh_cycles, cell_bits,
              cfg.quant.int8_gemm ? 1 : 0);
    std::printf("wrote %s\n", csv_path.c_str());
  }

  // Per-span timings and counters for this run (REMAPD_TRACE /
  // REMAPD_METRICS additionally dump machine-readable files at exit).
  if (telemetry::enabled())
    std::fputs(telemetry::summary_table().c_str(), stderr);
  // With REMAPD_HEALTH set the observatory dumps the JSONL stream + summary
  // at exit; echo the summary here too so interactive runs see it.
  if (obs::enabled())
    std::fputs(obs::Observatory::instance().summary().c_str(), stderr);
  return 0;
}
