// Batch normalization over channels of a rank-4 tensor (or features of a
// rank-2 tensor). Scale/shift parameters live in CMOS functional units in
// the target RCS, so they are never faulted or remapped.
//
// Each per-channel statistic (the forward sum and centered sum of squares,
// the backward sum(dy) and sum(dy*xhat)) is one serial double sum over
// (sample, position). Channels are summed side by side in lockstep groups
// (nn/channel_groups.hpp), never split, so every sum keeps its order and
// bits; the normalize and dx passes are elementwise and vectorized (DESIGN
// §9). tests/batchnorm_reference.hpp holds the scalar reference.
#pragma once

#include "nn/layer.hpp"

namespace remapd {

class BatchNorm final : public Layer, public ckpt::Snapshotable {
 public:
  explicit BatchNorm(std::size_t channels, float momentum = 0.1f,
                     float eps = 1e-5f, std::string tag = "bn");

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& dy) override;
  std::vector<Param*> params() override { return {&gamma_, &beta_}; }
  [[nodiscard]] std::string name() const override { return tag_; }

  /// Start a fresh statistics window. Inference uses the exact statistics
  /// of all samples seen in the window (aggregated as count/mean/M2 per
  /// channel, so the variance of the batch means is included — averaging
  /// per-batch variances would under-estimate the pooled variance for
  /// small batches); the trainer opens a window per epoch so evaluation
  /// sees the activation distribution of the *current* weights (important
  /// when faulted weights shift activations over training — stale EMA
  /// statistics would misnormalize).
  void begin_stats_window();

  // Snapshotable: EMA running statistics plus the double-precision Chan
  // window accumulators (gamma/beta are ordinary params and are saved with
  // the model weights, not here).
  void save_state(ckpt::ByteWriter& w) const override;
  void load_state(ckpt::ByteReader& r) override;

 private:
  std::size_t channels_;
  float momentum_, eps_;
  Param gamma_, beta_;
  Tensor running_mean_, running_var_;   ///< EMA fallback (empty window)
  // Window accumulators are statistics, not hot-path tensors: kept in
  // double so the Chan merge never truncates between batches and the pooled
  // statistics stay exact over arbitrarily long windows.
  std::vector<double> window_mean_, window_m2_;  ///< Chan pooled mean / M2
  double window_count_ = 0.0;           ///< samples merged into the window
  std::string tag_;

  // Saved batch statistics / normalized activations for backward.
  Tensor xhat_;
  std::vector<float> batch_inv_std_;
  Shape input_shape_;
};

}  // namespace remapd
