#include "core/scenario_policies.hpp"

#include <algorithm>
#include <set>

#include "xbar/transient.hpp"

namespace remapd {

// ---------------------------------------------------------------- refresh

void DetectAndRefresh::on_epoch_end(PolicyContext& ctx) {
  last_cycles_ = 0;
  last_refreshed_ = 0;
  if (!ctx.transients || !ctx.mapper) return;

  Rcs& rcs = ctx.mapper->rcs();
  const std::uint64_t rows = rcs.config().xbar_rows;
  // Deterministic crossbar order: the mapper enumerates tasks in a fixed
  // order, so mapped_xbars() is reproducible run-to-run.
  for (XbarId x : ctx.mapper->mapped_xbars()) {
    // Detection: verify-read every row against its expected image. This
    // runs whether or not anything drifted — detection is the standing
    // cost of the policy, paid on every refresh round.
    last_cycles_ += rows * kVerifyCyclesPerRow;

    const auto& upsets = ctx.transients->upsets_of(x);
    if (upsets.empty()) continue;
    // Rewrite only the rows that failed verification.
    std::set<std::uint32_t> drifted_rows;
    const std::uint32_t cols =
        static_cast<std::uint32_t>(rcs.crossbar(x).cols());
    for (const UpsetCell& u : upsets) drifted_rows.insert(u.cell / cols);
    last_cycles_ +=
        static_cast<std::uint64_t>(drifted_rows.size()) *
        kRewriteCyclesPerRow;
    // A refresh rewrite stresses the array like any other write pass:
    // fighting transients accelerates endurance wear-out (§14 trade-off).
    rcs.crossbar(x).record_array_write();
    last_refreshed_ += ctx.transients->clear_crossbar(x);
  }
  total_cycles_ += last_cycles_;
  total_refreshed_ += last_refreshed_;
}

void DetectAndRefresh::save_state(ckpt::ByteWriter& w) const {
  w.u64(total_cycles_);
  w.u64(total_refreshed_);
}

void DetectAndRefresh::load_state(ckpt::ByteReader& r) {
  total_cycles_ = r.u64();
  total_refreshed_ = static_cast<std::size_t>(r.u64());
}

// ---------------------------------------------------------------- xchangr

void XChangrMapping::on_training_start(PolicyContext& ctx) {
  // The whole mitigation is an interconnect decision: drive lines from
  // alternating sides so every cell's wire path equals the mean path the
  // periphery calibrates to — the calibrated gain field collapses to
  // exactly 1. The mapper folds that into every view it builds from now
  // on; the scheme itself is checkpointed with the task map, so a resumed
  // run keeps it without re-running this hook.
  if (ctx.mapper) ctx.mapper->set_line_scheme(LineScheme::kAlternating);
}

// ----------------------------------------------------------- drop-connect

void DropConnect::on_training_start(PolicyContext& ctx) {
  // One draw from the trainer stream seeds every mask of the run; the
  // per-(epoch, layer) masks are derived statelessly from it so
  // filter_view consumes no shared RNG state (an extra view rebuild — as
  // happens on resume — must not shift the training trajectory).
  seeded_ = true;
  base_seed_ = ctx.rng ? ctx.rng->engine()() : 0x0d70'c0de'5eedULL;
}

FaultView DropConnect::filter_view(std::size_t layer, Phase phase,
                                   FaultView view,
                                   const PolicyContext& ctx) {
  (void)phase;  // forward and backward drop the same logical weights
  if (!seeded_ || !ctx.mapper) return view;
  const auto& dims = ctx.mapper->layer_dims(layer);
  const std::size_t n = dims.first * dims.second;
  const std::size_t k =
      static_cast<std::size_t>(kFraction * static_cast<double>(n));
  if (k == 0) return view;

  Rng mask_rng(
      Rng::derive_seed(Rng::derive_seed(base_seed_, ctx.epoch), layer));
  std::vector<std::size_t> dropped =
      mask_rng.sample_without_replacement(n, k);
  std::sort(dropped.begin(), dropped.end());

  // A physically faulty (or upset) cell cannot be "dropped" into a clean
  // zero — its clamp wins; skip such indices.
  std::set<std::uint32_t> clamped;
  for (const WeightClamp& c : view.clamps) clamped.insert(c.index);
  for (std::size_t idx : dropped) {
    const auto index = static_cast<std::uint32_t>(idx);
    if (clamped.count(index)) continue;
    view.clamps.push_back(WeightClamp{index, WeightClampKind::kZeroed});
  }
  return view;
}

void DropConnect::save_state(ckpt::ByteWriter& w) const {
  w.boolean(seeded_);
  w.u64(base_seed_);
}

void DropConnect::load_state(ckpt::ByteReader& r) {
  seeded_ = r.boolean();
  base_seed_ = r.u64();
}

}  // namespace remapd
