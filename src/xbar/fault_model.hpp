// System-level fault scenarios (§III.A, §IV.A).
//
// Pre-deployment: clustered manufacturing defects with a non-uniform spatial
// distribution — 20 % of crossbars draw a high fault density (0.4–1 %), the
// remaining 80 % a low density (0–0.4 %); SA0:SA1 = 9:1.
//
// Post-deployment: endurance wear-out — after each training epoch, n % of
// the crossbars gain m % new faulty cells (worst-case "every epoch"
// assumption of the paper). Selection is biased toward crossbars that have
// already been written more (wear-out follows write traffic).
#pragma once

#include "xbar/endurance.hpp"
#include "xbar/rcs.hpp"

namespace remapd {

struct FaultScenario {
  // --- pre-deployment ---
  bool enable_pre = true;
  double high_density_fraction = 0.20;  ///< fraction of crossbars hit hard
  double high_density_lo = 0.004, high_density_hi = 0.010;
  double low_density_lo = 0.000, low_density_hi = 0.004;
  double sa0_fraction = 0.9;            ///< SA0:SA1 = 9:1 [11]
  std::size_t clusters_per_xbar = 2;

  // --- post-deployment ---
  bool enable_post = true;
  double post_xbar_fraction = 0.01;     ///< n: fraction of crossbars / epoch
  double post_cell_fraction = 0.005;    ///< m: new faulty cells per crossbar
  /// Alternative wear generator: derive fault arrivals from each
  /// crossbar's actual write count via the Weibull endurance model instead
  /// of the phenomenological (m, n) rates (ablation).
  bool mechanistic_endurance = false;
  EnduranceConfig endurance{};

  static constexpr std::size_t kPaperEpochs = 50;  ///< the paper's horizon
  /// Uniform (non-clustered) variant used by ablations / Fig. 5.
  static FaultScenario uniform(double density);
  /// The Fig. 6 default configuration (per-epoch rates as in §IV.C,
  /// assuming the paper's 50-epoch training).
  static FaultScenario paper_default();
  /// Time-compressed variant: our CPU-scale runs train for `epochs`
  /// (typically 6–10) instead of the paper's 50, so the per-epoch
  /// post-deployment rate is scaled to keep the *cumulative* wear-out
  /// exposure equal: n_eff = min(1, n * (kPaperEpochs / epochs)).
  static FaultScenario paper_default_compressed(std::size_t epochs);
  /// An explicit n compressed the same way but rounded as (n * kPaperEpochs)
  /// / epochs: one ulp off the preset's at some epoch counts (0 counts as 1).
  static double compressed_post_n(double n, std::size_t epochs);
  /// No faults at all (ideal hardware).
  static FaultScenario ideal();
};

/// Applies a FaultScenario to an Rcs over the training timeline.
///
/// Each crossbar's faults are drawn from a child RNG deterministically
/// derived from (base seed, injection round, crossbar id), so the injected
/// patterns are identical no matter how many threads process the
/// per-crossbar loops (REMAPD_THREADS) or in which order.
class FaultInjector : public ckpt::Snapshotable {
 public:
  FaultInjector(FaultScenario scenario, Rng& rng)
      : scenario_(scenario), rng_(rng), base_seed_(rng.engine()()) {}

  [[nodiscard]] const FaultScenario& scenario() const { return scenario_; }

  /// Inject pre-deployment faults into every crossbar. Returns the number
  /// of faults injected.
  std::size_t inject_pre_deployment(Rcs& rcs);

  /// Inject one epoch's worth of post-deployment faults. Crossbar
  /// selection is weighted by accumulated array writes when available.
  /// With `mechanistic_endurance` set, delegates to the Weibull endurance
  /// model instead. Returns the number of new faults.
  std::size_t inject_post_deployment(Rcs& rcs);

  // Snapshotable: base seed, completed post-deployment rounds, and the
  // endurance model's write baselines. Restoring the base seed keeps the
  // child-RNG streams of the remaining rounds identical to an
  // uninterrupted run.
  void save_state(ckpt::ByteWriter& w) const override;
  void load_state(ckpt::ByteReader& r) override;

 private:
  /// Child RNG for crossbar `id` in injection round `round` (round 0 =
  /// pre-deployment, then one per post-deployment epoch).
  [[nodiscard]] Rng crossbar_rng(std::size_t round, XbarId id) const {
    return Rng(Rng::derive_seed(Rng::derive_seed(base_seed_, round), id));
  }

  FaultScenario scenario_;
  Rng& rng_;
  std::uint64_t base_seed_;   ///< drawn once from rng_ at construction
  std::size_t post_rounds_ = 0;
  EnduranceModel endurance_model_{EnduranceConfig{}};
  bool endurance_initialized_ = false;
};

}  // namespace remapd
