// FaultAwareTrainer: the full system loop of the paper.
//
// Per training run:
//   1. Build the CNN, size an RCS for it, tile + map every weight matrix
//      (forward and backward copies) onto crossbars.
//   2. Inject pre-deployment faults (clustered, non-uniform, SA0:SA1 9:1).
//   3. BIST survey -> density map; policy.on_training_start (e.g. static
//      fault-aware placement); build fault views and install them.
//   4. For each epoch: SGD over the training set with the faulted forward
//      and backward crossbar arithmetic; post-deployment fault injection
//      (wear-out of the epoch's writes); BIST survey; policy.on_epoch_end
//      (e.g. Remap-D task swaps); rebuild fault views; evaluate accuracy
//      through the faulted forward path.
//
// Every policy of Fig. 6 plugs into the same loop, so accuracy differences
// are attributable to the policy alone.
#pragma once

#include "bist/controller.hpp"
#include "core/remap_policy.hpp"
#include "data/synth.hpp"
#include "nn/sgd.hpp"
#include "quant/programmer.hpp"
#include "trainer/metrics.hpp"
#include "xbar/fault_model.hpp"
#include "xbar/transient.hpp"

namespace remapd {

namespace ckpt {
class CheckpointWriter;
class CheckpointReader;
}  // namespace ckpt

/// Restrict fault injection to the crossbars of one phase (the Fig. 5
/// forward-vs-backward tolerance experiment).
enum class PhaseFaultTarget { kAll, kForwardOnly, kBackwardOnly };

struct TrainerConfig {
  std::string model = "vgg11";
  ModelConfig model_cfg{};
  SynthSpec data{};
  std::size_t epochs = 6;
  std::size_t batch_size = 32;
  Sgd::Config sgd{};
  FaultScenario faults = FaultScenario::ideal();
  /// Transient conductance upsets (xbar/transient.hpp); off by default.
  TransientScenario transients{};
  /// Interconnect IR-drop (xbar/ir_drop.hpp); ideal wires by default.
  IrDropConfig ir_drop{};
  /// Multi-bit cell quantization (quant/quant.hpp). When enabled, every
  /// optimizer step ends with a stochastic-rounding array write that snaps
  /// the master weights onto each crossbar's discrete level grid, and the
  /// crossbars store level codes (SAF clamps and transient upsets then act
  /// on codes). quant.int8_gemm additionally routes layer MVMs through the
  /// int8 GEMM fast path. Off by default: fp32 runs are bit-identical to
  /// pre-quantization builds.
  QuantSpec quant{};
  PhaseFaultTarget fault_target = PhaseFaultTarget::kAll;
  std::string policy = "none";
  std::size_t xbar_size = 32;  ///< crossbar dimension for the scaled run
  MappingMode mapping = MappingMode::kSingleArrayBias;
  /// Clip stored weights to the conductance range after every update.
  /// Off by default: PytorX-style evaluation keeps an FP32 master copy and
  /// lets corrupted-gradient momentum drive weights out of range — the
  /// divergence dynamics behind the paper's large accuracy drops. The
  /// saturation ablation bench flips this on.
  bool saturate_weights = false;
  std::uint64_t seed = 42;
  bool use_bist_estimates = true;  ///< false: policies see ground truth
  bool verbose = false;

  // --- checkpoint / resume ---
  /// Save a checkpoint to `checkpoint_path` every N completed epochs
  /// (0 = never). A save also happens when `stop_after_epochs` truncates
  /// the run, so an interrupted run always leaves a resumable file.
  std::size_t checkpoint_every = 0;
  std::string checkpoint_path;
  /// Restore full training state from this checkpoint before running.
  /// The stored config fingerprint must match this config exactly.
  std::string resume_from;
  /// Stop (cleanly) after this many total epochs even though `epochs` is
  /// larger (0 = run to completion). This models an interruption without
  /// touching `epochs`, which the lr schedule and the compressed fault
  /// scenario are derived from.
  std::size_t stop_after_epochs = 0;
};

class FaultAwareTrainer {
 public:
  explicit FaultAwareTrainer(TrainerConfig cfg);

  /// Run the full training; returns the per-epoch record. After a
  /// restore_from (or cfg.resume_from), continues from the checkpointed
  /// epoch and the returned history includes the restored epochs.
  TrainResult run();

  /// Deployment prologue: pre-deployment fault injection, the initial BIST
  /// survey, the policy's placement round, and the first fault-view build.
  /// run()/run_slice() call it implicitly; the fleet scheduler calls it
  /// explicitly when a job is bound to a chip so that an epoch-0 checkpoint
  /// already contains the deployed state. Idempotent; after a restore it
  /// rebuilds the views from the restored state instead of re-injecting.
  void begin_training();

  /// Incremental execution for job multiplexing (src/fleet/): run up to
  /// `max_epochs` further epochs (0 = run to the cfg.epochs horizon) and
  /// yield. Returns true when all cfg.epochs are complete. Slices ignore
  /// checkpoint_every / stop_after_epochs — the caller owns checkpointing.
  /// Slicing is bitwise-identical to one uninterrupted run(): the batch
  /// shuffle, fault schedule, and arithmetic depend only on epoch index and
  /// restored RNG state, never on slice boundaries.
  bool run_slice(std::size_t max_epochs);

  /// Epochs finished so far (== result().history.size()).
  [[nodiscard]] std::size_t epochs_completed() const {
    return result_.history.size();
  }
  /// True once every cfg.epochs has run.
  [[nodiscard]] bool finished() const {
    return epochs_completed() >= cfg_.epochs;
  }
  /// Records accumulated so far (complete after run() / final run_slice()).
  [[nodiscard]] const TrainResult& result() const { return result_; }

  /// Write the complete training state to `path` (atomic; see
  /// ckpt/checkpoint.hpp). Section inventory in trainer/trainer_ckpt.cpp.
  void save_checkpoint(const std::string& path);
  /// The same checkpoint image as save_checkpoint, returned as bytes
  /// instead of touching the filesystem — live migration hands this
  /// straight to another trainer's restore_from_bytes.
  [[nodiscard]] std::string save_checkpoint_bytes();
  /// Restore state saved by save_checkpoint. Throws ckpt::CheckpointError
  /// if the file is corrupt or its config fingerprint does not match this
  /// trainer's config. A subsequent run() continues bitwise-identically to
  /// the uninterrupted run.
  void restore_from(const std::string& path);
  /// Restore from an in-memory image (same validation as restore_from).
  void restore_from_bytes(const std::string& bytes);

  /// Deploy-time interconnect what-if: swap the IR-drop model / line-drive
  /// scheme and rebuild every installed fault view (X-CHANGR-style
  /// evaluation of a trained network on a different interconnect than it
  /// trained on). Call after run(); a subsequent evaluate_accuracy() on
  /// model() reads through the redeployed arithmetic.
  void redeploy_interconnect(const IrDropConfig& ir, LineScheme scheme);

  // Introspection for tests / examples (valid after construction).
  [[nodiscard]] const Rcs& rcs() const { return *rcs_; }
  /// Mutable RCS access for the fleet layer: a SimChip imprints its native
  /// faults / wear into the array state of the job deployed on it.
  [[nodiscard]] Rcs& rcs() { return *rcs_; }
  [[nodiscard]] const WeightMapper& mapper() const { return *mapper_; }
  [[nodiscard]] const FaultDensityMap& density() const { return density_; }
  [[nodiscard]] Model& model() { return model_; }
  [[nodiscard]] const TrainerConfig& config() const { return cfg_; }

 private:
  void inject_pre_deployment();
  /// One full training epoch: SGD over the shuffled set, post-deployment
  /// wear, BIST survey, policy round, view refresh, evaluation; appends the
  /// epoch's record to result_.
  void train_one_epoch(std::size_t epoch, Batcher& batcher);
  /// Shared section writer/reader behind the file and byte checkpoints.
  void write_sections(ckpt::CheckpointWriter& w);
  void read_sections(const ckpt::CheckpointReader& reader);
  /// BIST (or ground-truth) survey into the density map; returns cycles.
  std::uint64_t survey();
  /// Rebuild + install fault views on every faultable layer. `view_epoch`
  /// is the epoch the views will serve (the *next* one at an epoch
  /// boundary): epoch-keyed view filters (drop-connect's rotating mask)
  /// must see the same value whether the views are built at the end of
  /// epoch e or by begin_training() after a resume past epoch e.
  void refresh_fault_views(std::size_t view_epoch);
  /// Conductance full-scale for layer `l` from its current weight RMS.
  [[nodiscard]] float compute_layer_w_max(std::size_t l) const;
  /// One array-write round (quantized runs only): stochastically round the
  /// master weights of every forward task onto its crossbar's level grid,
  /// then advance the programmer round. Stream per (round, crossbar), so
  /// the result is identical at any REMAPD_THREADS.
  void program_step();
  PolicyContext make_context(std::size_t epoch);

  TrainerConfig cfg_;
  Rng rng_;
  std::vector<float> layer_w_max_;  ///< current conductance full-scale
  TrainTest data_;
  Model model_;
  std::vector<FaultableLayer*> layers_;
  std::unique_ptr<Rcs> rcs_;
  std::unique_ptr<WeightMapper> mapper_;
  std::unique_ptr<FaultInjector> injector_;
  /// Null unless cfg_.transients.enabled (so SAF-only runs draw exactly
  /// the RNG stream they always did).
  std::unique_ptr<TransientFaultModel> transients_;
  /// Null unless cfg_.quant.enabled (same stream-preservation rule). Seeded
  /// from cfg_.seed via derive_seed — never from rng_ draws.
  std::unique_ptr<StochasticProgrammer> programmer_;
  /// Per-task write-order cache for program_step (task_weight_indices is
  /// remap-invariant); lazily built, empty slots for backward tasks.
  std::vector<std::vector<std::uint32_t>> task_indices_;
  PolicyPtr policy_;
  FaultDensityMap density_;
  BistController bist_;
  std::unique_ptr<Sgd> sgd_;

  // Baseline-policy inputs.
  std::vector<Tensor> initial_weights_;
  std::vector<Tensor> grad_importance_;

  // Resume state: training continues at result_.history.size(), with
  // result_ pre-seeded from the checkpointed history.
  TrainResult result_;
  bool resumed_ = false;
  bool started_ = false;  ///< begin_training() already ran on this object
};

/// Ordered (field, value) pairs of every config field that shapes the
/// training trajectory — stored in the checkpoint and compared on resume.
[[nodiscard]] std::vector<std::pair<std::string, std::string>>
config_fingerprint(const TrainerConfig& cfg);

/// Convenience wrapper: construct + run.
TrainResult train_with_faults(const TrainerConfig& cfg);

/// Bench-calibrated configuration for a model of the zoo: 8 epochs over
/// the 256-sample scaled dataset, with a per-model learning rate (the
/// deepest plain VGG needs a gentler rate at the scaled width).
TrainerConfig recommended_config(const std::string& model);

}  // namespace remapd
