// General experiment runner: every knob of the fault-aware trainer behind
// command-line flags, with CSV output — the tool for running custom
// configurations beyond the prebuilt figure benches.
//
// Usage: remapd_experiment [--flag value]...
//   --model NAME        vgg11|vgg16|vgg19|resnet12|resnet18|squeezenet —
//                       the base config (recommended_config)
//   --policy NAME       none|an-code|static|remap-ws|remap-t-5|remap-t-10|
//                       remap-d|refresh|xchangr|drop-connect
//   --fault-model NAME  saf|transient|ir-drop|saf+transient|saf+ir-drop|
//                       ideal — scenario preset (trainer/scenarios.hpp;
//                       default saf), compressed to the final epoch count
//   --list-policies     print the policy registry and exit
//   --list-fault-models print the fault-model registry and exit
//   --dataset NAME      cifar10|cifar100|svhn
//   --epochs N          training epochs (default 8)
//   --train N           training samples (default 256)
//   --test N            test samples (default 128)
//   --seed N            RNG seed (default 42)
//   --ideal             alias of --fault-model ideal: no faults
//   --pre-high PCT      high-band pre-deployment density, e.g. 1.0 (%)
//   --post-m PCT        new faulty cells per selected crossbar per epoch (%)
//   --post-n PCT        crossbars gaining faults per paper epoch (%),
//                       compressed like the preset's (n x 50 / epochs)
//   --phase NAME        all|forward|backward (Fig. 5-style targeting)
//   --mapping NAME      single|differential
//   --cell-bits N       quantize cells to N-bit levels (1..4; default fp32)
//   --quant-noise S     programming-noise sigma in level units (default 0;
//                       requires --cell-bits)
//   --int8              route layer MVMs through the int8 GEMM fast path
//                       (requires --cell-bits)
//   --csv PATH          append per-epoch records to a CSV file
//   --checkpoint PATH   save a checkpoint here (default: every epoch)
//   --checkpoint-every N  save every N epochs instead
//   --stop-after N      stop cleanly after N epochs (for interrupt tests)
//   --resume PATH       restore a checkpoint and continue the run; the
//                       other flags must match the interrupted leg exactly
//
// Flags fill one ExperimentSpec; make_trainer_config (trainer/scenarios.hpp)
// applies it in a fixed order, whatever the flag order. A bad value or
// contradicting flags exit 2 naming them; an unusable checkpoint exits 1.
// The REMAPD_EPOCHS / REMAPD_TRAIN / REMAPD_TEST overrides are not read.

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "ckpt/snapshot.hpp"
#include "obs/report.hpp"
#include "telemetry/telemetry.hpp"
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
  ExperimentSpec spec;
  std::string fault_flag;  // the flag that named spec.fault_model
  std::string csv_path, checkpoint_path, resume_from;
  std::size_t checkpoint_every = 0, stop_after = 0;  // run controls

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
    } else if (flag == "--fault-model" || flag == "--ideal") {
      // --ideal is an alias of --fault-model ideal; naming two different
      // fault models is a contradiction, not a silent override.
      const std::string name = flag == "--ideal" ? "ideal" : next();
      const std::string given = flag == "--ideal" ? flag : flag + " " + name;
      if (!fault_flag.empty() && name != spec.fault_model)
        usage((fault_flag + " contradicts " + given).c_str());
      fault_flag = given;
      spec.fault_model = name;
    } else if (flag == "--model") {
      spec.model = next();
    } else if (flag == "--policy") {
      spec.policy = next();
    } else if (flag == "--dataset") {
      const std::string d = next();
      if (d == "cifar10") spec.dataset = SynthKind::kCifar10;
      else if (d == "cifar100") spec.dataset = SynthKind::kCifar100;
      else if (d == "svhn") spec.dataset = SynthKind::kSvhn;
      else usage("unknown dataset");
    } else if (flag == "--epochs") {
      spec.epochs = count();
    } else if (flag == "--train") {
      spec.train = count();
    } else if (flag == "--test") {
      spec.test = count();
    } else if (flag == "--seed") {
      spec.seed = uint_arg();
    } else if (flag == "--pre-high") {
      spec.pre_high = percent();
    } else if (flag == "--post-m") {
      spec.post_m = percent();
    } else if (flag == "--post-n") {
      spec.post_n = percent();
    } else if (flag == "--phase") {
      const std::string p = next();
      if (p == "all") spec.phase = PhaseFaultTarget::kAll;
      else if (p == "forward") spec.phase = PhaseFaultTarget::kForwardOnly;
      else if (p == "backward") spec.phase = PhaseFaultTarget::kBackwardOnly;
      else usage("unknown phase");
    } else if (flag == "--mapping") {
      const std::string m = next();
      if (m == "single") spec.mapping = MappingMode::kSingleArrayBias;
      else if (m == "differential")
        spec.mapping = MappingMode::kDifferentialPair;
      else usage("unknown mapping");
    } else if (flag == "--cell-bits") {
      spec.quant.enabled = true;
      spec.quant.cell_bits = count();
    } else if (flag == "--quant-noise") {
      spec.quant.program_noise_sigma = nonneg_arg();
    } else if (flag == "--int8") {
      spec.quant.int8_gemm = true;
    } else if (flag == "--csv") {
      csv_path = next();
    } else if (flag == "--checkpoint") {
      checkpoint_path = next();
      if (checkpoint_every == 0) checkpoint_every = 1;
    } else if (flag == "--checkpoint-every") {
      checkpoint_every = count();
    } else if (flag == "--stop-after") {
      stop_after = count();
    } else if (flag == "--resume") {
      resume_from = next();
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  TrainerConfig cfg;
  try {
    cfg = make_trainer_config(spec);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
  cfg.checkpoint_path = checkpoint_path;
  cfg.checkpoint_every = checkpoint_every;
  cfg.stop_after_epochs = stop_after;
  cfg.resume_from = resume_from;

  std::printf("model=%s policy=%s dataset=%s epochs=%zu seed=%llu\n",
              cfg.model.c_str(), cfg.policy.c_str(),
              synth_name(cfg.data.kind), cfg.epochs,
              static_cast<unsigned long long>(cfg.seed));
  if (cfg.quant.enabled)
    std::printf("quant: cell_bits=%zu noise=%g int8=%d\n",
                cfg.quant.cell_bits, cfg.quant.program_noise_sigma,
                cfg.quant.int8_gemm ? 1 : 0);

  TrainResult r;
  try {
    r = train_with_faults(cfg);
  } catch (const ckpt::CheckpointError& e) {
    std::fprintf(stderr, "remapd_experiment: %s\n", e.what());
    return 1;
  }
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
