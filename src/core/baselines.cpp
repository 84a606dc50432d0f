#include "core/baselines.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <cmath>
#include <unordered_map>

#include "obs/audit.hpp"

namespace remapd {
namespace {

/// Magnitude above which a value is in the top `fraction` of |values|.
float top_fraction_threshold(const Tensor& values, double fraction) {
  if (values.empty() || fraction <= 0.0)
    return std::numeric_limits<float>::max();
  std::vector<float> mags(values.numel());
  for (std::size_t i = 0; i < values.numel(); ++i)
    mags[i] = std::abs(values[i]);
  auto keep = static_cast<std::size_t>(
      std::floor(fraction * static_cast<double>(mags.size())));
  if (keep == 0) return std::numeric_limits<float>::max();
  if (keep >= mags.size()) return 0.0f;
  std::nth_element(mags.begin(),
                   mags.begin() + static_cast<std::ptrdiff_t>(keep - 1),
                   mags.end(), std::greater<float>());
  return mags[keep - 1];
}

}  // namespace

// ------------------------------------------------------------ StaticMapping

void StaticMapping::on_training_start(PolicyContext& ctx) {
  clear_events();
  WeightMapper& mapper = *ctx.mapper;
  const FaultDensityMap& density = *ctx.density;

  // Crossbars sorted by measured density, best first.
  std::vector<XbarId> order(density.size());
  for (XbarId x = 0; x < order.size(); ++x) order[x] = x;
  std::sort(order.begin(), order.end(), [&](XbarId a, XbarId b) {
    return density.density(a) < density.density(b);
  });

  // Critical (backward) tasks first, then forward, each claiming the next
  // best crossbar. Executed as swaps so the mapping stays a bijection.
  std::vector<TaskId> tasks(mapper.num_tasks());
  for (TaskId t = 0; t < tasks.size(); ++t) tasks[t] = t;
  std::stable_sort(tasks.begin(), tasks.end(), [&](TaskId a, TaskId b) {
    return task_criticality(mapper.task(a).phase) >
           task_criticality(mapper.task(b).phase);
  });

  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const XbarId want = order[i];
    const XbarId have = mapper.xbar_of(tasks[i]);
    if (want == have) continue;
    if (ctx.audit) {
      obs::RemapAuditRecord rec;
      rec.epoch = ctx.epoch;
      rec.policy = name();
      rec.at_training_start = ctx.at_training_start;
      rec.sender = have;
      rec.receiver = want;
      rec.reason = "static-placement";
      rec.sender_density = density.density(have);
      rec.receiver_density = density.density(want);
      rec.hops = mapper.hop_distance(have, want);
      ctx.audit->append(std::move(rec));
    }
    mapper.swap_tasks(tasks[i], want);
    record_event(have, want);
  }
}

// ------------------------------------------------------------------ RemapWS

FaultView RemapWS::filter_view(std::size_t layer, Phase phase, FaultView view,
                               const PolicyContext& ctx) {
  (void)phase;
  const LayerSnapshot& snap = ctx.layers.at(layer);
  if (!snap.initial_weights) return view;
  // Significance comes from the t=0 analysis — the method's pretrained-
  // model assumption, which training-from-scratch violates (§IV.C).
  const float thr = top_fraction_threshold(*snap.initial_weights, fraction_);
  std::erase_if(view.clamps, [&](const WeightClamp& c) {
    const float mag = std::abs((*snap.initial_weights)[c.index]);
    return mag >= thr && mag > 0.0f;
  });
  return view;
}

// ---------------------------------------------------------------- RemapTopN

std::string RemapTopN::name() const {
  return "remap-t-" +
         std::to_string(static_cast<int>(std::lround(fraction_ * 100))) + "%";
}

FaultView RemapTopN::filter_view(std::size_t layer, Phase phase,
                                 FaultView view, const PolicyContext& ctx) {
  (void)phase;
  const LayerSnapshot& snap = ctx.layers.at(layer);
  if (!snap.grad_importance) return view;
  // Importance is refreshed every epoch from |gradient| — the preemptive
  // per-epoch remap of the top-n % weights to spare fault-free hardware.
  // A zero threshold (e.g. before the first epoch produces importance
  // data) protects nothing — zero-importance weights are not "top".
  const float thr = top_fraction_threshold(*snap.grad_importance, fraction_);
  std::erase_if(view.clamps, [&](const WeightClamp& c) {
    const float mag = std::abs((*snap.grad_importance)[c.index]);
    return mag >= thr && mag > 0.0f;
  });
  return view;
}

// -------------------------------------------------------------- AnCodePolicy

FaultView AnCodePolicy::filter_view(std::size_t layer, Phase phase,
                                    FaultView view,
                                    const PolicyContext& ctx) {
  const WeightMapper& mapper = *ctx.mapper;
  const auto dims = mapper.layer_dims(layer);

  // Blocks of this layer+phase whose crossbar is within the code's
  // capability (decided on BIST-estimated density — what the correction
  // table builder can observe).
  std::vector<const WeightBlock*> corrected;
  for (TaskId t = 0; t < mapper.num_tasks(); ++t) {
    const WeightBlock& blk = mapper.task(t);
    if (blk.layer != layer || blk.phase != phase) continue;
    if (ctx.density->density(mapper.xbar_of(t)) <= kCapability)
      corrected.push_back(&blk);
  }

  std::erase_if(view.clamps, [&](const WeightClamp& c) {
    const std::size_t w_row = c.index / dims.second;
    const std::size_t w_col = c.index % dims.second;
    for (const WeightBlock* blk : corrected)
      if (block_covers(*blk, w_row, w_col)) return true;  // corrected
    return false;
  });
  return view;
}

}  // namespace remapd
