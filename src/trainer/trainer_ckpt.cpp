// Checkpoint section inventory of FaultAwareTrainer.
//
//   meta      RunMeta identity card (model/policy/dataset/seed/progress)
//   config    ordered (field, value) fingerprint of every config field that
//             shapes the training trajectory; compared verbatim on resume
//   rng       the trainer's shared RNG stream (engine + cached
//             distribution state)
//   model     every parameter tensor (weights, biases, BN gamma/beta),
//             tagged, in model params() order
//   bn        BatchNorm running statistics + Chan window accumulators
//   sgd       momentum buffers
//   gradimp   per-layer |grad| importance accumulators (the weight-
//             significance baselines read the *completed* epoch's values
//             when views are rebuilt after resume)
//   rcs       per-crossbar cell state: SA0/SA1 fault maps, differential-
//             pair halves, stuck resistances, endurance write counters
//   mapper    task -> crossbar assignment (including Remap-D swaps) and
//             the line-drive scheme
//   injector  fault-injection base seed, completed rounds, endurance
//             baselines
//   transients transient-upset base seed, completed rounds, and every
//             still-drifted cell (absent marker when the scenario is off)
//   quant     stochastic-programmer base seed + completed write rounds
//             (absent marker when quantization is off); the crossbars'
//             level codes travel inside "rcs"
//   policy    the policy's name plus its Snapshotable payload (e.g.
//             drop-connect's mask seed, refresh's lifetime totals)
//   density   the BIST fault-density map + survey counter
//   history   per-epoch records + cumulative remap count
//
// Together these cover every bit of state that differs between "trained N
// epochs and stopped" and "trained N epochs of a longer run": a restore
// followed by the remaining epochs reproduces the uninterrupted run
// bitwise (see tests/test_ckpt.cpp).
#include <cstdio>

#include "ckpt/checkpoint.hpp"
#include "nn/batchnorm.hpp"
#include "telemetry/export.hpp"
#include "trainer/fault_aware_trainer.hpp"

namespace remapd {
namespace {

/// Shortest round-trip-exact decimal form: fingerprints compare as text.
std::string fmt_f(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string fmt_b(bool v) { return v ? "1" : "0"; }

void save_epoch_record(ckpt::ByteWriter& w, const EpochRecord& rec) {
  w.u64(rec.epoch);
  w.f32(rec.train_loss);
  w.f64(rec.train_accuracy);
  w.f64(rec.test_accuracy);
  w.u64(rec.remaps);
  w.f64(rec.mean_density_est);
  w.f64(rec.max_density_est);
  w.u64(rec.total_faults);
  w.u64(rec.new_faults);
  w.u64(rec.bist_cycles);
  w.u64(rec.new_upsets);
  w.u64(rec.live_upsets);
  w.u64(rec.refreshed_cells);
  w.u64(rec.refresh_cycles);
}

EpochRecord load_epoch_record(ckpt::ByteReader& r) {
  EpochRecord rec;
  rec.epoch = static_cast<std::size_t>(r.u64());
  rec.train_loss = r.f32();
  rec.train_accuracy = r.f64();
  rec.test_accuracy = r.f64();
  rec.remaps = static_cast<std::size_t>(r.u64());
  rec.mean_density_est = r.f64();
  rec.max_density_est = r.f64();
  rec.total_faults = static_cast<std::size_t>(r.u64());
  rec.new_faults = static_cast<std::size_t>(r.u64());
  rec.bist_cycles = r.u64();
  rec.new_upsets = static_cast<std::size_t>(r.u64());
  rec.live_upsets = static_cast<std::size_t>(r.u64());
  rec.refreshed_cells = static_cast<std::size_t>(r.u64());
  rec.refresh_cycles = r.u64();
  return rec;
}

}  // namespace

std::vector<std::pair<std::string, std::string>>
config_fingerprint(const TrainerConfig& cfg) {
  std::vector<std::pair<std::string, std::string>> p;
  p.emplace_back("model", cfg.model);
  p.emplace_back("base_width", std::to_string(cfg.model_cfg.base_width));
  p.emplace_back("input_channels",
                 std::to_string(cfg.model_cfg.input_channels));
  p.emplace_back("data.kind",
                 std::to_string(static_cast<int>(cfg.data.kind)));
  p.emplace_back("data.image_size", std::to_string(cfg.data.image_size));
  p.emplace_back("data.train", std::to_string(cfg.data.train));
  p.emplace_back("data.test", std::to_string(cfg.data.test));
  p.emplace_back("data.noise", fmt_f(cfg.data.noise));
  // The lr step schedule and the compressed post-deployment fault rate are
  // functions of the full horizon, so `epochs` is part of the trajectory
  // even before the final epoch runs.
  p.emplace_back("epochs", std::to_string(cfg.epochs));
  p.emplace_back("batch_size", std::to_string(cfg.batch_size));
  p.emplace_back("sgd.lr", fmt_f(cfg.sgd.lr));
  p.emplace_back("sgd.momentum", fmt_f(cfg.sgd.momentum));
  p.emplace_back("sgd.weight_decay", fmt_f(cfg.sgd.weight_decay));
  p.emplace_back("sgd.grad_clip", fmt_f(cfg.sgd.grad_clip));
  const FaultScenario& fs = cfg.faults;
  p.emplace_back("faults.enable_pre", fmt_b(fs.enable_pre));
  p.emplace_back("faults.high_fraction", fmt_f(fs.high_density_fraction));
  p.emplace_back("faults.high_lo", fmt_f(fs.high_density_lo));
  p.emplace_back("faults.high_hi", fmt_f(fs.high_density_hi));
  p.emplace_back("faults.low_lo", fmt_f(fs.low_density_lo));
  p.emplace_back("faults.low_hi", fmt_f(fs.low_density_hi));
  p.emplace_back("faults.sa0_fraction", fmt_f(fs.sa0_fraction));
  p.emplace_back("faults.clusters", std::to_string(fs.clusters_per_xbar));
  p.emplace_back("faults.enable_post", fmt_b(fs.enable_post));
  p.emplace_back("faults.post_xbar_fraction",
                 fmt_f(fs.post_xbar_fraction));
  p.emplace_back("faults.post_cell_fraction",
                 fmt_f(fs.post_cell_fraction));
  p.emplace_back("faults.mechanistic", fmt_b(fs.mechanistic_endurance));
  p.emplace_back("faults.weibull_shape", fmt_f(fs.endurance.weibull_shape));
  p.emplace_back("faults.char_writes",
                 fmt_f(fs.endurance.characteristic_writes));
  p.emplace_back("faults.endurance_sa0", fmt_f(fs.endurance.sa0_fraction));
  p.emplace_back("transients.enabled", fmt_b(cfg.transients.enabled));
  p.emplace_back("transients.upset_rate", fmt_f(cfg.transients.upset_rate));
  p.emplace_back("transients.toward_on",
                 fmt_f(cfg.transients.toward_on_fraction));
  p.emplace_back("ir.wire_ohms", fmt_f(cfg.ir_drop.wire_ohms_per_cell));
  p.emplace_back("ir.reference_ohms", fmt_f(cfg.ir_drop.reference_ohms));
  // 0 when quantization is off, so an fp32 checkpoint resumed with
  // --cell-bits (or vice versa) fails naming the decisive field.
  p.emplace_back("quant.cell_bits",
                 std::to_string(cfg.quant.enabled ? cfg.quant.cell_bits
                                                   : 0));
  p.emplace_back("quant.noise", fmt_f(cfg.quant.program_noise_sigma));
  p.emplace_back("quant.int8", fmt_b(cfg.quant.int8_gemm));
  p.emplace_back("fault_target",
                 std::to_string(static_cast<int>(cfg.fault_target)));
  p.emplace_back("policy", cfg.policy);
  p.emplace_back("xbar_size", std::to_string(cfg.xbar_size));
  p.emplace_back("mapping", std::to_string(static_cast<int>(cfg.mapping)));
  p.emplace_back("saturate_weights", fmt_b(cfg.saturate_weights));
  p.emplace_back("seed", std::to_string(cfg.seed));
  p.emplace_back("use_bist", fmt_b(cfg.use_bist_estimates));
  // No environment variable alters the arithmetic (REMAPD_THREADS cannot:
  // results are bitwise thread-count-invariant), so none is fingerprinted.
  return p;
}

void FaultAwareTrainer::write_sections(ckpt::CheckpointWriter& w) {
  {
    ckpt::RunMeta meta;
    meta.model = model_.name;
    meta.policy = policy_->name();
    meta.dataset = synth_name(cfg_.data.kind);
    meta.seed = cfg_.seed;
    meta.epochs_total = cfg_.epochs;
    meta.epochs_completed = result_.history.size();
    meta.crossbars = rcs_->total_crossbars();
    meta.tasks = mapper_->num_tasks();
    meta.save(w.section("meta"));
  }
  ckpt::save_string_pairs(w.section("config"), config_fingerprint(cfg_));
  rng_.save_state(w.section("rng"));
  {
    ckpt::ByteWriter& mw = w.section("model");
    const std::vector<Param*> params = model_.params();
    mw.u64(params.size());
    for (const Param* p : params) {
      mw.str(p->tag);
      save_tensor(mw, p->value);
    }
  }
  {
    ckpt::ByteWriter& bw = w.section("bn");
    std::vector<BatchNorm*> bns;
    model_.net->visit([&](Layer& l) {
      if (auto* bn = dynamic_cast<BatchNorm*>(&l)) bns.push_back(bn);
    });
    bw.u64(bns.size());
    for (const BatchNorm* bn : bns) bn->save_state(bw);
  }
  sgd_->save_state(w.section("sgd"));
  {
    ckpt::ByteWriter& gw = w.section("gradimp");
    gw.u64(grad_importance_.size());
    for (const Tensor& t : grad_importance_) save_tensor(gw, t);
  }
  rcs_->save_state(w.section("rcs"));
  mapper_->save_state(w.section("mapper"));
  injector_->save_state(w.section("injector"));
  {
    // Presence flag first: the config fingerprint already guarantees the
    // scenario matches, but an explicit marker keeps the section
    // self-describing for the inspector and fails loudly on corruption.
    ckpt::ByteWriter& tw = w.section("transients");
    tw.boolean(transients_ != nullptr);
    if (transients_) transients_->save_state(tw);
  }
  {
    // Same presence-flag pattern as "transients".
    ckpt::ByteWriter& qw = w.section("quant");
    qw.boolean(programmer_ != nullptr);
    if (programmer_) programmer_->save_state(qw);
  }
  {
    ckpt::ByteWriter& pw = w.section("policy");
    pw.str(policy_->name());
    policy_->save_state(pw);
  }
  density_.save_state(w.section("density"));
  {
    ckpt::ByteWriter& hw = w.section("history");
    hw.u64(result_.total_remaps);
    hw.u64(result_.history.size());
    for (const EpochRecord& rec : result_.history)
      save_epoch_record(hw, rec);
  }
}

void FaultAwareTrainer::save_checkpoint(const std::string& path) {
  ckpt::CheckpointWriter w;
  write_sections(w);
  w.write_file(path);
}

std::string FaultAwareTrainer::save_checkpoint_bytes() {
  ckpt::CheckpointWriter w;
  write_sections(w);
  return w.serialize();
}

void FaultAwareTrainer::restore_from(const std::string& path) {
  read_sections(ckpt::CheckpointReader(path));
  // The interrupted leg (a previous process) already wrote its telemetry /
  // obs streams to the same paths; this process must extend them, not
  // overwrite them. Only the file path sets this: an in-memory restore
  // (restore_from_bytes — fleet live migration) happens inside one
  // process whose exporters hold the full history and flush normally.
  telemetry::set_resume_append(true);
}

void FaultAwareTrainer::restore_from_bytes(const std::string& bytes) {
  read_sections(ckpt::CheckpointReader::from_bytes(bytes));
}

void FaultAwareTrainer::read_sections(const ckpt::CheckpointReader& reader) {
  ckpt::RunMeta meta;
  {
    ckpt::ByteReader r = reader.open("meta");
    meta.load(r);
    r.expect_end();
  }

  {
    ckpt::ByteReader r = reader.open("config");
    const auto stored = ckpt::load_string_pairs(r);
    r.expect_end();
    const auto current = config_fingerprint(cfg_);
    if (stored.size() != current.size())
      throw ckpt::CheckpointError(
          "config fingerprint has " + std::to_string(stored.size()) +
          " fields, this build expects " + std::to_string(current.size()) +
          " (checkpoint from a different code version?)");
    for (std::size_t i = 0; i < stored.size(); ++i) {
      if (stored[i].first != current[i].first)
        throw ckpt::CheckpointError(
            "config fingerprint field order mismatch: '" + stored[i].first +
            "' vs '" + current[i].first + "'");
      if (stored[i].second != current[i].second)
        throw ckpt::CheckpointError(
            "config mismatch on '" + stored[i].first + "': checkpoint has " +
            stored[i].second + ", this run has " + current[i].second);
    }
  }

  const auto load = [&](const char* name, auto&& fn) {
    ckpt::ByteReader r = reader.open(name);
    fn(r);
    r.expect_end();
  };

  load("rng", [&](ckpt::ByteReader& r) { rng_.load_state(r); });
  load("model", [&](ckpt::ByteReader& r) {
    const std::vector<Param*> params = model_.params();
    const std::uint64_t count = r.u64();
    if (count != params.size())
      throw ckpt::CheckpointError(
          "parameter count mismatch: stored " + std::to_string(count) +
          ", model has " + std::to_string(params.size()));
    for (Param* p : params) {
      const std::string tag = r.str();
      if (tag != p->tag)
        throw ckpt::CheckpointError("parameter tag mismatch: stored '" + tag +
                                    "', model has '" + p->tag + "'");
      load_tensor_into(r, p->value);
    }
  });
  load("bn", [&](ckpt::ByteReader& r) {
    std::vector<BatchNorm*> bns;
    model_.net->visit([&](Layer& l) {
      if (auto* bn = dynamic_cast<BatchNorm*>(&l)) bns.push_back(bn);
    });
    const std::uint64_t count = r.u64();
    if (count != bns.size())
      throw ckpt::CheckpointError(
          "BatchNorm count mismatch: stored " + std::to_string(count) +
          ", model has " + std::to_string(bns.size()));
    for (BatchNorm* bn : bns) bn->load_state(r);
  });
  load("sgd", [&](ckpt::ByteReader& r) { sgd_->load_state(r); });
  load("gradimp", [&](ckpt::ByteReader& r) {
    const std::uint64_t count = r.u64();
    if (count != grad_importance_.size())
      throw ckpt::CheckpointError("grad-importance layer count mismatch");
    for (Tensor& t : grad_importance_) load_tensor_into(r, t);
  });
  load("rcs", [&](ckpt::ByteReader& r) { rcs_->load_state(r); });
  load("mapper", [&](ckpt::ByteReader& r) { mapper_->load_state(r); });
  load("injector", [&](ckpt::ByteReader& r) { injector_->load_state(r); });
  load("transients", [&](ckpt::ByteReader& r) {
    const bool present = r.boolean();
    if (present != (transients_ != nullptr))
      throw ckpt::CheckpointError(
          present ? "checkpoint has transient-upset state but the scenario "
                    "is disabled in this config"
                  : "checkpoint has no transient-upset state but the "
                    "scenario is enabled in this config");
    if (transients_) transients_->load_state(r);
  });
  load("quant", [&](ckpt::ByteReader& r) {
    const bool present = r.boolean();
    if (present != (programmer_ != nullptr))
      throw ckpt::CheckpointError(
          present ? "checkpoint has quantized-programming state but "
                    "quantization is disabled in this config"
                  : "checkpoint has no quantized-programming state but "
                    "quantization is enabled in this config");
    if (programmer_) programmer_->load_state(r);
  });
  load("policy", [&](ckpt::ByteReader& r) {
    const std::string stored = r.str();
    if (stored != policy_->name())
      throw ckpt::CheckpointError("policy mismatch: checkpoint was written "
                                  "by '" + stored + "', this run uses '" +
                                  policy_->name() + "'");
    policy_->load_state(r);
  });
  load("density", [&](ckpt::ByteReader& r) { density_.load_state(r); });
  load("history", [&](ckpt::ByteReader& r) {
    result_.total_remaps = static_cast<std::size_t>(r.u64());
    const std::uint64_t count = r.u64();
    result_.history.clear();
    result_.history.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i)
      result_.history.push_back(load_epoch_record(r));
  });

  if (result_.history.size() != meta.epochs_completed)
    throw ckpt::CheckpointError(
        "meta says " + std::to_string(meta.epochs_completed) +
        " epochs completed but history holds " +
        std::to_string(result_.history.size()));

  resumed_ = true;
  // A restore invalidates any views begin_training() built earlier on this
  // object: force the prologue to run again (in resumed mode it only
  // rebuilds views — no re-injection, no placement round).
  started_ = false;
}

}  // namespace remapd
