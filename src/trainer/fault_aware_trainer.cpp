#include "trainer/fault_aware_trainer.hpp"

#include <cmath>
#include <stdexcept>

#include "nn/loss.hpp"
#include "obs/report.hpp"
#include "telemetry/telemetry.hpp"
#include "util/env.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"

namespace remapd {
namespace {

/// Conductance full-scale as a multiple of the layer weight RMS.
constexpr float kFullScaleRms = 4.0f;

/// Domain tag separating the stochastic programmer's seed stream from every
/// other derive_seed consumer of cfg.seed.
constexpr std::uint64_t kProgrammerSeedTag = 0x70726f67;  // "prog"

}  // namespace

FaultAwareTrainer::FaultAwareTrainer(TrainerConfig cfg)
    : cfg_(std::move(cfg)), rng_(cfg_.seed),
      data_(make_synthetic([&] {
        SynthSpec s = cfg_.data;
        s.seed = cfg_.seed;
        return s;
      }())),
      model_([&] {
        ModelConfig mc = cfg_.model_cfg;
        mc.num_classes = data_.train.num_classes;
        mc.input_size = cfg_.data.image_size;
        Rng init_rng(cfg_.seed ^ 0x1234);
        return build_model(cfg_.model, mc, init_rng);
      }()) {
  layers_ = model_.faultable();

  // Size an RCS with enough crossbars for every forward + backward block.
  std::vector<std::pair<std::size_t, std::size_t>> dims;
  dims.reserve(layers_.size());
  std::size_t blocks = 0;
  const std::size_t s = cfg_.xbar_size;
  for (FaultableLayer* l : layers_) {
    dims.emplace_back(l->weight_rows(), l->weight_cols());
    const std::size_t fr = (l->weight_rows() + s - 1) / s;
    const std::size_t fc = (l->weight_cols() + s - 1) / s;
    blocks += 2 * fr * fc;  // forward + backward copies
  }
  RcsConfig rcfg = RcsConfig::sized_for(blocks, s, s);
  // Quantized cells: the crossbars allocate level-code storage, and SAF /
  // upset / IR-drop models act on discrete codes.
  cfg_.quant.validate();
  rcfg.cell.quant = cfg_.quant;
  rcs_ = std::make_unique<Rcs>(rcfg);
  mapper_ = std::make_unique<WeightMapper>(*rcs_);
  mapper_->map_layers(dims);

  injector_ = std::make_unique<FaultInjector>(cfg_.faults, rng_);
  if (cfg_.transients.enabled) {
    transients_ =
        std::make_unique<TransientFaultModel>(cfg_.transients, rng_);
    mapper_->set_transients(transients_.get());
  }
  mapper_->set_ir_drop(cfg_.ir_drop);
  if (cfg_.quant.enabled)
    programmer_ = std::make_unique<StochasticProgrammer>(
        cfg_.quant, Rng::derive_seed(cfg_.seed, kProgrammerSeedTag));
  policy_ = make_policy(cfg_.policy);
  density_.reset(rcs_->total_crossbars());

  // Snapshot initial weights and allocate gradient-importance buffers for
  // the weight-significance baselines.
  initial_weights_.reserve(layers_.size());
  grad_importance_.reserve(layers_.size());
  for (FaultableLayer* l : layers_) {
    initial_weights_.push_back(l->weight_param().value);
    grad_importance_.push_back(Tensor::zeros(l->weight_param().value.shape()));
  }

  sgd_ = std::make_unique<Sgd>(model_.params(), cfg_.sgd);

  if (!cfg_.resume_from.empty()) restore_from(cfg_.resume_from);
}

void FaultAwareTrainer::inject_pre_deployment() {
  if (!cfg_.faults.enable_pre) return;
  if (cfg_.fault_target == PhaseFaultTarget::kAll) {
    injector_->inject_pre_deployment(*rcs_);
    return;
  }
  // Fig. 5 mode: uniform faults only on the crossbars of one phase.
  const Phase phase = cfg_.fault_target == PhaseFaultTarget::kForwardOnly
                          ? Phase::kForward
                          : Phase::kBackward;
  const double density = cfg_.faults.high_density_hi;
  for (XbarId x : mapper_->xbars_of_phase(phase)) {
    Crossbar& xb = rcs_->crossbar(x);
    const auto count = static_cast<std::size_t>(
        std::llround(density * static_cast<double>(xb.cell_count())));
    xb.inject_random_faults(count, cfg_.faults.sa0_fraction, rng_);
  }
}

std::uint64_t FaultAwareTrainer::survey() {
  if (cfg_.use_bist_estimates) {
    std::uint64_t cycles = 0;
    density_.update(bist_.survey(*rcs_, &cycles));
    return cycles;
  }
  density_.update(rcs_->fault_densities());
  return 0;
}

PolicyContext FaultAwareTrainer::make_context(std::size_t epoch) {
  PolicyContext ctx;
  ctx.mapper = mapper_.get();
  ctx.density = &density_;
  ctx.epoch = epoch;
  ctx.rng = &rng_;
  ctx.transients = transients_.get();
  if (obs::enabled()) ctx.audit = &obs::Observatory::instance().audit();
  ctx.layers.resize(layers_.size());
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    ctx.layers[l].initial_weights = &initial_weights_[l];
    ctx.layers[l].grad_importance = &grad_importance_[l];
  }
  return ctx;
}

void FaultAwareTrainer::redeploy_interconnect(const IrDropConfig& ir,
                                              LineScheme scheme) {
  mapper_->set_ir_drop(ir);
  mapper_->set_line_scheme(scheme);
  refresh_fault_views(epochs_completed());
}

float FaultAwareTrainer::compute_layer_w_max(std::size_t l) const {
  // Conductance full-scale tracks the layer's dynamic range: the mapping
  // allocates headroom of `kFullScaleRms` times the weight RMS (like a
  // fixed-point quantizer clipping rare outliers). A stuck cell therefore
  // represents a full-scale (multi-sigma) weight value, and conductance
  // saturation bounds any drift to the same range.
  const Tensor& w = layers_[l]->weight_param().value;
  double sq = 0.0;
  for (std::size_t i = 0; i < w.numel(); ++i)
    sq += static_cast<double>(w[i]) * w[i];
  const float rms = static_cast<float>(
      std::sqrt(sq / static_cast<double>(std::max<std::size_t>(w.numel(), 1))));
  return std::max(0.05f, kFullScaleRms * rms);
}

void FaultAwareTrainer::program_step() {
  if (!programmer_) return;
  if (task_indices_.empty()) {
    // Write order per crossbar is remap-invariant, so the cache survives
    // swaps. Backward tasks hold the transposed copy of the same weights;
    // programming iterates forward tasks only, touching every master
    // weight exactly once per round.
    task_indices_.resize(mapper_->num_tasks());
    for (TaskId t = 0; t < mapper_->num_tasks(); ++t)
      if (mapper_->task(t).phase == Phase::kForward)
        task_indices_[t] = mapper_->task_weight_indices(t);
  }
  // Tasks write disjoint weight slices from independent per-(round, xbar)
  // RNG streams, so any thread partition produces identical bits.
  parallel_for(0, mapper_->num_tasks(), 1,
               [&](std::size_t t0, std::size_t t1) {
    for (TaskId t = t0; t < t1; ++t) {
      const WeightBlock& blk = mapper_->task(t);
      if (blk.phase != Phase::kForward) continue;
      const std::vector<std::uint32_t>& idx = task_indices_[t];
      programmer_->program_indexed(
          mapper_->xbar_of(t),
          layers_[blk.layer]->weight_param().value.data(), idx.data(),
          idx.size(), layer_w_max_[blk.layer]);
    }
  });
  programmer_->advance_round();
}

void FaultAwareTrainer::refresh_fault_views(std::size_t view_epoch) {
  PolicyContext ctx = make_context(view_epoch);
  layer_w_max_.resize(layers_.size());
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const float w_max = compute_layer_w_max(l);
    layer_w_max_[l] = w_max;
    // Quantized arrays: refresh the stored level codes before the views
    // read them (upset decoding needs codes under the current w_max).
    // Idempotent for fixed (weights, w_max), so the re-refresh after a
    // checkpoint resume reproduces the interrupted run's codes exactly.
    if (programmer_)
      mapper_->commit_level_codes(
          l, layers_[l]->weight_param().value.data(), w_max);
    FaultView fwd =
        mapper_->build_fault_view(l, Phase::kForward, w_max, cfg_.mapping);
    FaultView bwd =
        mapper_->build_fault_view(l, Phase::kBackward, w_max, cfg_.mapping);
    fwd = policy_->filter_view(l, Phase::kForward, std::move(fwd), ctx);
    bwd = policy_->filter_view(l, Phase::kBackward, std::move(bwd), ctx);
    layers_[l]->set_fault_views(std::move(fwd), std::move(bwd));
  }
}

void FaultAwareTrainer::begin_training() {
  if (started_) return;
  started_ = true;

  result_.model = model_.name;
  result_.policy = policy_->name();
  result_.dataset = synth_name(cfg_.data.kind);
  result_.policy_area_overhead_percent = policy_->area_overhead_percent();

  obs::Observatory* ob =
      obs::enabled() ? &obs::Observatory::instance() : nullptr;
  if (ob) {
    obs::RunInfo info;
    info.model = result_.model;
    info.policy = result_.policy;
    info.dataset = result_.dataset;
    info.seed = cfg_.seed;
    info.epochs = cfg_.epochs;
    info.crossbars = rcs_->total_crossbars();
    info.tiles_x = rcs_->config().tiles_x;
    info.tiles_y = rcs_->config().tiles_y;
    info.xbar_rows = rcs_->config().xbar_rows;
    info.xbar_cols = rcs_->config().xbar_cols;
    ob->begin_run(info);
  }

  if (!resumed_) {
    inject_pre_deployment();
    {
      REMAPD_TRACE_SPAN("bist-survey", "trainer");
      survey();
    }
    {
      REMAPD_TRACE_SPAN("remap", "trainer");
      PolicyContext ctx = make_context(0);
      // The placement round precedes deployment: its swaps are audited with
      // round="start" (excluded from epoch swap counts) and generate no NoC
      // weight-exchange traffic — the arrays are written fresh afterwards.
      ctx.at_training_start = true;
      policy_->on_training_start(ctx);
      result_.total_remaps += policy_->last_events().size();
    }
    if (programmer_) {
      // Initial array write (round 0): deployment programs the fresh
      // placement's crossbars, snapping the initial weights onto the level
      // grid. Skipped on resume — the restored weights are already the
      // programmed ones and the programmer resumes at its restored round.
      REMAPD_TRACE_SPAN("array-write", "trainer");
      layer_w_max_.resize(layers_.size());
      for (std::size_t l = 0; l < layers_.size(); ++l)
        layer_w_max_[l] = compute_layer_w_max(l);
      program_step();
    }
  }
  {
    // On resume this rebuilds the views from the restored fault state,
    // task map, and grad-importance accumulators — exactly the views the
    // interrupted run trained its next epoch with. epochs_completed() is
    // 0 for a fresh run and matches the view_epoch the interrupted run
    // last refreshed with (epoch + 1 at the boundary of its final epoch).
    REMAPD_TRACE_SPAN("view-refresh", "trainer");
    refresh_fault_views(epochs_completed());
  }
}

void FaultAwareTrainer::train_one_epoch(std::size_t epoch, Batcher& batcher) {
  obs::Observatory* ob =
      obs::enabled() ? &obs::Observatory::instance() : nullptr;
  Sgd& sgd = *sgd_;

  telemetry::TraceSpan epoch_span(
      "epoch", "trainer",
      telemetry::enabled() ? "{\"epoch\":" + std::to_string(epoch) + "}"
                           : std::string());
  {
    // Step learning-rate schedule (x0.3 at 1/2 and 3/4 of training): late
    // epochs run at a small rate, which keeps a nearly-converged model from
    // being tipped into divergence by accumulated fault perturbations.
    float lr = cfg_.sgd.lr;
    if (epoch * 2 >= cfg_.epochs) lr *= 0.3f;
    if (epoch * 4 >= 3 * cfg_.epochs) lr *= 0.3f;
    sgd.set_lr(lr);
  }

  for (auto& imp : grad_importance_) imp.fill(0.0f);
  // Fresh BN statistics window so evaluation normalizes with the current
  // epoch's activation distribution.
  model_.net->visit([](Layer& l) {
    if (auto* bn = dynamic_cast<BatchNorm*>(&l)) bn->begin_stats_window();
  });

  batcher.start_epoch();
  double loss_sum = 0.0;
  std::size_t correct = 0, seen = 0;
  for (std::size_t b = 0; b < batcher.batches_per_epoch(); ++b) {
    const Batch batch = batcher.get(b);
    Tensor logits;
    {
      REMAPD_TRACE_SPAN("forward", "trainer");
      logits = model_.forward(batch.images, /*train=*/true);
    }
    const LossResult batch_loss = softmax_cross_entropy(logits, batch.labels);
    {
      REMAPD_TRACE_SPAN("backward", "trainer");
      model_.backward(batch_loss.dlogits);
    }

    // Accumulate |grad| importance before the optimizer clears grads.
    for (std::size_t l = 0; l < layers_.size(); ++l) {
      const Tensor& g = layers_[l]->weight_param().grad;
      Tensor& imp = grad_importance_[l];
      for (std::size_t i = 0; i < g.numel(); ++i)
        imp[i] += std::abs(g[i]);
    }

    {
      REMAPD_TRACE_SPAN("sgd-step", "trainer");
      sgd.step();
      mapper_->record_weight_update();  // endurance accounting

      // Conductance saturation (ablation): a stored weight cannot leave
      // the representable range [-w_max, +w_max] — the array write clips
      // it, bounding pinned-gradient drift.
      if (cfg_.saturate_weights)
        for (std::size_t l = 0; l < layers_.size(); ++l) {
          const float wm = layer_w_max_[l];
          Tensor& wt = layers_[l]->weight_param().value;
          for (std::size_t i = 0; i < wt.numel(); ++i) {
            if (wt[i] > wm) wt[i] = wm;
            else if (wt[i] < -wm) wt[i] = -wm;
          }
        }

      // Quantized arrays: the update lands in the arrays as a stochastic-
      // rounding write — the master weights themselves live on the level
      // grid (quantized storage, not just quantized inference).
      if (programmer_) {
        REMAPD_TRACE_SPAN("array-write", "trainer");
        program_step();
      }
    }

    loss_sum += static_cast<double>(batch_loss.loss) * batch.labels.size();
    correct += batch_loss.correct;
    seen += batch.labels.size();
  }

  // --- epoch boundary: wear-out, upsets, BIST, remapping, view refresh ---
  std::size_t new_faults = 0;
  if (cfg_.fault_target == PhaseFaultTarget::kAll)
    new_faults = injector_->inject_post_deployment(*rcs_);
  // Transient upsets accrued over this epoch's operation. They surface in
  // the views built below — corrupting evaluation and the next epoch —
  // unless the policy's refresh round clears them first. The BIST survey
  // does NOT see them: march tests target permanent faults, and a cell
  // that programs correctly passes (detection needs the verify-read the
  // refresh policy pays for).
  std::size_t new_upsets = 0;
  if (transients_) new_upsets = transients_->step_epoch(*rcs_);
  std::uint64_t bist_cycles = 0;
  {
    REMAPD_TRACE_SPAN("bist-survey", "trainer");
    bist_cycles = survey();
  }

  PolicyContext ctx = make_context(epoch);
  const std::size_t audit_before = ob ? ob->audit().size() : 0;
  {
    REMAPD_TRACE_SPAN("remap", "trainer");
    policy_->on_epoch_end(ctx);
  }
  const std::size_t remaps = policy_->last_events().size();
  result_.total_remaps += remaps;
  {
    // Views for the next epoch (and this epoch's evaluation): epoch-keyed
    // filters must match what a resume at this boundary would rebuild.
    REMAPD_TRACE_SPAN("view-refresh", "trainer");
    refresh_fault_views(epoch + 1);
  }

  EpochRecord rec;
  rec.epoch = epoch;
  rec.train_loss = static_cast<float>(loss_sum / std::max<std::size_t>(seen, 1));
  rec.train_accuracy =
      static_cast<double>(correct) / std::max<std::size_t>(seen, 1);
  {
    REMAPD_TRACE_SPAN("evaluate", "trainer");
    rec.test_accuracy = evaluate_accuracy(model_, data_.test);
  }
  rec.remaps = remaps;
  rec.mean_density_est = density_.mean();
  rec.max_density_est = density_.max();
  rec.bist_cycles = bist_cycles;
  std::size_t faults = 0;
  for (XbarId x = 0; x < rcs_->total_crossbars(); ++x)
    faults += rcs_->crossbar(x).fault_count();
  rec.total_faults = faults;
  rec.new_faults = new_faults;
  rec.new_upsets = new_upsets;
  rec.live_upsets = transients_ ? transients_->total_upsets() : 0;
  rec.refreshed_cells = policy_->last_refreshed_cells();
  rec.refresh_cycles = policy_->last_extra_cycles();
  result_.history.push_back(rec);

  if (ob) {
    // Replay this round's protocol traffic (Fig. 3) from the audit
    // records it appended, then snapshot every crossbar's health.
    const auto& audit_recs = ob->audit().records();
    if (audit_recs.size() > audit_before)
      ob->noc().record_round(
          epoch, obs::simulate_round_traffic(audit_recs, audit_before, *rcs_));
    obs::EpochObs eo;
    eo.epoch = epoch;
    eo.remaps = rec.remaps;
    eo.new_faults = rec.new_faults;
    eo.total_faults = rec.total_faults;
    eo.train_loss = rec.train_loss;
    eo.test_accuracy = rec.test_accuracy;
    eo.bist_cycles = rec.bist_cycles;
    ob->sample_epoch(eo, *rcs_, density_, *mapper_);
  }

  if (telemetry::enabled()) {
    auto& reg = telemetry::Registry::instance();
    reg.counter("trainer.epochs").add();
    reg.counter("trainer.batches").add(batcher.batches_per_epoch());
    reg.counter("trainer.samples").add(seen);
    reg.counter("trainer.new_faults").add(new_faults);
    reg.gauge("trainer.train_loss").set(rec.train_loss);
    reg.gauge("trainer.test_accuracy").set(rec.test_accuracy);
    reg.gauge("trainer.total_faults").set(static_cast<double>(faults));
  }

  if (cfg_.verbose)
    log_info(model_.name, "/", policy_->name(), " epoch ", epoch,
             " loss=", rec.train_loss, " train_acc=", rec.train_accuracy,
             " test_acc=", rec.test_accuracy, " remaps=", remaps,
             " faults=", faults);
}

TrainResult FaultAwareTrainer::run() {
  begin_training();

  Batcher batcher(data_.train, cfg_.batch_size, rng_);
  for (std::size_t epoch = epochs_completed(); epoch < cfg_.epochs; ++epoch) {
    train_one_epoch(epoch, batcher);

    // --- checkpoint / early stop ---
    const std::size_t done = epoch + 1;
    const bool stopping =
        cfg_.stop_after_epochs > 0 && done >= cfg_.stop_after_epochs &&
        done < cfg_.epochs;
    if (!cfg_.checkpoint_path.empty() &&
        ((cfg_.checkpoint_every > 0 && done % cfg_.checkpoint_every == 0) ||
         stopping)) {
      REMAPD_TRACE_SPAN("checkpoint", "trainer");
      save_checkpoint(cfg_.checkpoint_path);
      if (cfg_.verbose)
        log_info("checkpoint saved to ", cfg_.checkpoint_path, " after epoch ",
                 epoch);
    }
    if (stopping) break;
  }

  result_.final_test_accuracy =
      result_.history.empty() ? 0.0 : result_.history.back().test_accuracy;
  return result_;
}

bool FaultAwareTrainer::run_slice(std::size_t max_epochs) {
  begin_training();
  const std::size_t next = epochs_completed();
  const std::size_t limit =
      max_epochs == 0 ? cfg_.epochs
                      : std::min(cfg_.epochs, next + max_epochs);
  // A per-slice Batcher is bitwise-equivalent to one that lives across
  // slices: construction consumes no RNG state, and every epoch's shuffle
  // is drawn fresh from rng_ in start_epoch().
  Batcher batcher(data_.train, cfg_.batch_size, rng_);
  for (std::size_t epoch = next; epoch < limit; ++epoch)
    train_one_epoch(epoch, batcher);
  result_.final_test_accuracy =
      result_.history.empty() ? 0.0 : result_.history.back().test_accuracy;
  return finished();
}

TrainResult train_with_faults(const TrainerConfig& cfg) {
  FaultAwareTrainer trainer(cfg);
  return trainer.run();
}

TrainerConfig recommended_config(const std::string& model) {
  TrainerConfig cfg;
  cfg.model = model;
  cfg.epochs = 8;
  cfg.data.train = 256;
  cfg.data.test = 128;
  // The deep plain VGGs need a gentler rate at the scaled width: at 0.05
  // their training is stable on ideal hardware but fault perturbations tip
  // it into divergence, which would confound fault damage with optimizer
  // instability.
  cfg.sgd.lr = (model == "vgg16" || model == "vgg19") ? 0.02f : 0.05f;
  // The two lowest-redundancy architectures — 16-conv plain VGG and
  // SqueezeNet with its 4-channel squeeze bottlenecks at base width 8 —
  // get 1.5x width so individual stuck weights cannot sever whole paths
  // (the paper's full-width models have vastly more redundancy).
  if (model == "vgg19" || model == "squeezenet")
    cfg.model_cfg.base_width = 12;
  return cfg;
}

void apply_env_overrides(TrainerConfig& cfg) {
  cfg.epochs = env_size("REMAPD_EPOCHS", cfg.epochs);
  cfg.data.train = env_size("REMAPD_TRAIN", cfg.data.train);
  cfg.data.test = env_size("REMAPD_TEST", cfg.data.test);
}

}  // namespace remapd
