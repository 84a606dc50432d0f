#include "xbar/fault_model.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "util/parallel.hpp"

namespace remapd {

FaultScenario FaultScenario::uniform(double density) {
  FaultScenario s;
  s.enable_pre = true;
  s.high_density_fraction = 1.0;
  s.high_density_lo = s.high_density_hi = density;
  s.low_density_lo = s.low_density_hi = density;
  s.clusters_per_xbar = 0;  // uniform spread
  s.enable_post = false;
  return s;
}

FaultScenario FaultScenario::paper_default() { return FaultScenario{}; }

FaultScenario FaultScenario::paper_default_compressed(std::size_t epochs) {
  const double e = static_cast<double>(std::max<std::size_t>(epochs, 1));
  FaultScenario s;
  s.post_xbar_fraction = std::min(
      1.0, s.post_xbar_fraction * (static_cast<double>(kPaperEpochs) / e));
  return s;
}

double FaultScenario::compressed_post_n(double n, std::size_t epochs) {
  const double e = static_cast<double>(std::max<std::size_t>(epochs, 1));
  return std::min(1.0, n * static_cast<double>(kPaperEpochs) / e);
}

FaultScenario FaultScenario::ideal() {
  FaultScenario s;
  s.enable_pre = false;
  s.enable_post = false;
  return s;
}

std::size_t FaultInjector::inject_pre_deployment(Rcs& rcs) {
  if (!scenario_.enable_pre) return 0;
  const std::size_t total = rcs.total_crossbars();
  const auto high_count = static_cast<std::size_t>(
      std::llround(scenario_.high_density_fraction *
                   static_cast<double>(total)));
  const auto high_set = rng_.sample_without_replacement(total, high_count);
  std::vector<bool> is_high(total, false);
  for (std::size_t id : high_set) is_high[id] = true;

  // Each crossbar draws its density and fault pattern from its own child
  // RNG (round 0 = pre-deployment), so the loop parallelizes over disjoint
  // crossbars with patterns that are identical at any thread count. The
  // count is an order-free integer sum, so a relaxed atomic suffices.
  std::atomic<std::size_t> injected{0};
  parallel_for(0, total, 1, [&](std::size_t x0, std::size_t x1) {
    for (XbarId id = x0; id < x1; ++id) {
      Crossbar& xb = rcs.crossbar(id);
      Rng xrng = crossbar_rng(/*round=*/0, id);
      const double density =
          is_high[id]
              ? xrng.uniform(scenario_.high_density_lo,
                             scenario_.high_density_hi)
              : xrng.uniform(scenario_.low_density_lo,
                             scenario_.low_density_hi);
      const auto count = static_cast<std::size_t>(
          std::llround(density * static_cast<double>(xb.cell_count())));
      if (count == 0) continue;
      const std::size_t got =
          scenario_.clusters_per_xbar > 0
              ? xb.inject_clustered_faults(count, scenario_.sa0_fraction,
                                           scenario_.clusters_per_xbar, xrng)
              : xb.inject_random_faults(count, scenario_.sa0_fraction, xrng);
      injected.fetch_add(got, std::memory_order_relaxed);
    }
  });
  return injected.load(std::memory_order_relaxed);
}

std::size_t FaultInjector::inject_post_deployment(Rcs& rcs) {
  if (!scenario_.enable_post) return 0;
  const std::size_t round = ++post_rounds_;  // round 0 is pre-deployment
  if (scenario_.mechanistic_endurance) {
    if (!endurance_initialized_) {
      endurance_model_ = EnduranceModel(scenario_.endurance);
      endurance_initialized_ = true;
    }
    return endurance_model_.advance_epoch(rcs, rng_);
  }
  const std::size_t total = rcs.total_crossbars();
  auto count = static_cast<std::size_t>(std::llround(
      scenario_.post_xbar_fraction * static_cast<double>(total)));
  if (count == 0 && scenario_.post_xbar_fraction > 0.0) count = 1;
  if (count == 0) return 0;

  // Wear-out is write-driven and *sticky*: cells near already-degraded
  // cells fail preferentially (the same physical stress that produced the
  // first faults keeps acting), so crossbars that have started to wear out
  // keep accumulating faults. Selection weight couples accumulated writes
  // with the existing fault count.
  std::vector<double> weight(total);
  for (XbarId id = 0; id < total; ++id) {
    const Crossbar& xb = rcs.crossbar(id);
    weight[id] = (1.0 + static_cast<double>(xb.array_writes())) *
                 (1.0 + static_cast<double>(xb.fault_count()));
  }

  std::vector<XbarId> chosen;
  chosen.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    double sum = 0.0;
    for (double w : weight) sum += w;
    if (sum <= 0.0) break;
    double pick = rng_.uniform(0.0, sum);
    for (XbarId id = 0; id < total; ++id) {
      pick -= weight[id];
      if (pick <= 0.0) {
        chosen.push_back(id);
        weight[id] = 0.0;  // without replacement
        break;
      }
    }
  }

  // The weighted selection above is inherently sequential (tiny) and stays
  // on the shared RNG; the injections themselves are per-crossbar and use
  // round-keyed child RNGs, so they parallelize deterministically.
  std::atomic<std::size_t> injected{0};
  parallel_for(0, chosen.size(), 1, [&](std::size_t c0, std::size_t c1) {
    for (std::size_t ci = c0; ci < c1; ++ci) {
      const XbarId id = chosen[ci];
      Crossbar& xb = rcs.crossbar(id);
      Rng xrng = crossbar_rng(round, id);
      const auto n = static_cast<std::size_t>(std::llround(
          scenario_.post_cell_fraction *
          static_cast<double>(xb.cell_count())));
      // Post-deployment (endurance) faults are not spatially clustered the
      // way forming defects are — they follow cell usage.
      injected.fetch_add(
          xb.inject_random_faults(std::max<std::size_t>(n, 1),
                                  scenario_.sa0_fraction, xrng),
          std::memory_order_relaxed);
    }
  });
  return injected.load(std::memory_order_relaxed);
}

void FaultInjector::save_state(ckpt::ByteWriter& w) const {
  w.u64(base_seed_);
  w.u64(post_rounds_);
  w.boolean(endurance_initialized_);
  endurance_model_.save_state(w);
}

void FaultInjector::load_state(ckpt::ByteReader& r) {
  base_seed_ = r.u64();
  post_rounds_ = static_cast<std::size_t>(r.u64());
  endurance_initialized_ = r.boolean();
  if (endurance_initialized_)
    endurance_model_ = EnduranceModel(scenario_.endurance);
  endurance_model_.load_state(r);
}

}  // namespace remapd
