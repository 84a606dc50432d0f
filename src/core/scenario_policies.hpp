// Scenario-diversity baselines: policies targeting fault physics beyond
// the paper's permanent stuck-at scenario (see DESIGN.md §14).
//
//   refresh       online detect-and-refresh of transient conductance
//                 upsets (Khezeli & Zarandi, arXiv:2412.03089): every
//                 epoch, each mapped crossbar is verify-read
//                 row by row against its expected contents and drifted
//                 rows are rewritten. Cost is charged in ReRAM cycles
//                 (last_extra_cycles) and rewrites count against the
//                 endurance budget. A no-op under purely permanent faults
//                 — a stuck cell verifies as wrong forever and rewriting
//                 cannot fix it.
//   xchangr       X-CHANGR-style alternating line drive (arXiv:1907.00285):
//                 one-time interconnect reconfiguration that equalizes
//                 every cell's wire path, flattening the IR-drop gain
//                 field to a benign uniform scale. Needs IR-drop to be
//                 modelled to differ from "none".
//   drop-connect  drop-connect fault-tolerance training (arXiv:2404.15498):
//                 a deterministic per-epoch rotating 5 % of each
//                 layer's weights is disconnected (reads as zero, gets no
//                 gradient), training redundancy into the network instead
//                 of repairing hardware. Remap-free: never swaps a task.
#pragma once

#include "core/remap_policy.hpp"

namespace remapd {

/// Detect-and-refresh of transient upsets ("refresh").
class DetectAndRefresh final : public RemapPolicy {
 public:
  /// Verify read of one row (column-parallel compare against the expected
  /// image — same per-row cost class as a BIST march element).
  static constexpr std::uint64_t kVerifyCyclesPerRow = 1;
  /// Rewrite of one drifted row (program pulses are slower than reads).
  static constexpr std::uint64_t kRewriteCyclesPerRow = 4;

  [[nodiscard]] std::string name() const override { return "refresh"; }
  void on_epoch_end(PolicyContext& ctx) override;
  [[nodiscard]] std::uint64_t last_extra_cycles() const override {
    return last_cycles_;
  }
  [[nodiscard]] std::size_t last_refreshed_cells() const override {
    return last_refreshed_;
  }

  // Snapshotable: lifetime refresh totals (the per-round counters are
  // recomputed by every on_epoch_end before anything reads them).
  void save_state(ckpt::ByteWriter& w) const override;
  void load_state(ckpt::ByteReader& r) override;

  [[nodiscard]] std::uint64_t total_cycles() const { return total_cycles_; }
  [[nodiscard]] std::size_t total_refreshed() const {
    return total_refreshed_;
  }

 private:
  std::uint64_t last_cycles_ = 0;
  std::size_t last_refreshed_ = 0;
  std::uint64_t total_cycles_ = 0;
  std::size_t total_refreshed_ = 0;
};

/// Alternating line drive against IR-drop ("xchangr").
class XChangrMapping final : public RemapPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "xchangr"; }
  void on_training_start(PolicyContext& ctx) override;
};

/// Drop-connect fault-tolerance training ("drop-connect").
class DropConnect final : public RemapPolicy {
 public:
  /// Share of each layer's weights disconnected per epoch.
  static constexpr double kFraction = 0.05;

  [[nodiscard]] std::string name() const override { return "drop-connect"; }
  void on_training_start(PolicyContext& ctx) override;
  [[nodiscard]] FaultView filter_view(std::size_t layer, Phase phase,
                                      FaultView view,
                                      const PolicyContext& ctx) override;

  // Snapshotable: the mask seed, drawn once at training start. Without it
  // a resumed run would rotate through different masks than the
  // uninterrupted one.
  void save_state(ckpt::ByteWriter& w) const override;
  void load_state(ckpt::ByteReader& r) override;

 private:
  bool seeded_ = false;
  std::uint64_t base_seed_ = 0;
};

}  // namespace remapd
