// §III.B.3 timing reproduction: the BIST FSM costs 130 ReRAM cycles per
// fault type (128 row-writes + 1 read + 1 output-processing) and 260 cycles
// total for a 128x128 array — a 0.13% overhead against one training epoch
// under the full-system evaluation model of [3], [14].

#include <cstdio>

#include "bist/controller.hpp"
#include "bist/march.hpp"
#include "core/fault_density_map.hpp"
#include "obs/report.hpp"
#include "telemetry/telemetry.hpp"
#include "trainer/timing_model.hpp"
#include "util/rng.hpp"
#include "xbar/rcs.hpp"

int main() {
  using namespace remapd;
  std::printf("== BIST timing (Fig. 2 FSM) ==\n\n");

  std::printf("%10s %14s %14s\n", "array", "cycles", "time(us)");
  for (std::size_t rows : {16u, 32u, 64u, 128u, 256u}) {
    const std::uint64_t cycles = BistFsm::total_cycles(rows);
    std::printf("%7zux%-3zu %14llu %14.2f\n", rows, rows,
                static_cast<unsigned long long>(cycles),
                static_cast<double>(cycles) * kReramCycleNs / 1000.0);
  }

  // Cycle-accurate confirmation on a real crossbar survey.
  Crossbar xb(128, 128);
  BistController bist;
  const BistReport rep = bist.run(xb);
  std::printf("\nmeasured run on 128x128: %llu cycles (%.1f us)\n",
              static_cast<unsigned long long>(rep.cycles),
              rep.elapsed_ns / 1000.0);
  std::printf("paper: 130 (SA1) + 130 (SA0) = 260 cycles at 100 ns/cycle\n");

  // Training-time overhead: BIST runs once per epoch, all IMAs in parallel.
  // The denominator comes from the PipeLayer-style pipeline timing model
  // (CIFAR-scale epoch: 50k images streamed at the MVM initiation interval
  // plus per-batch row-by-row weight writes).
  const EpochTiming epoch = estimate_epoch_timing(PipelineTimingConfig{});
  std::printf("\nepoch timing model: %llu compute + %llu write = %llu ReRAM "
              "cycles (%.1f ms)\n",
              static_cast<unsigned long long>(epoch.compute_cycles),
              static_cast<unsigned long long>(epoch.write_cycles),
              static_cast<unsigned long long>(epoch.total_cycles),
              epoch.milliseconds);
  std::printf("per-epoch BIST overhead: %llu / %llu cycles = %.3f%%   "
              "(paper: 0.13%%)\n",
              static_cast<unsigned long long>(rep.cycles),
              static_cast<unsigned long long>(epoch.total_cycles),
              epoch.overhead_percent(rep.cycles));

  // The conventional alternative: a March C- pass localizes every fault
  // but costs 10 ops/cell — far too slow to run at every epoch (§II).
  const std::uint64_t march = march_c_minus_cycles(128 * 128);
  std::printf("\nMarch C- on the same array: %llu cycles (%.0fx the density "
              "BIST; %.1f%% of an epoch)\n",
              static_cast<unsigned long long>(march),
              static_cast<double>(march) / static_cast<double>(rep.cycles),
              epoch.overhead_percent(march));

  // Endurance: the two BIST write passes vs the per-epoch weight-update
  // writes (one array write per batch; 391 batches at CIFAR scale).
  std::printf("BIST adds 2 array writes per epoch — negligible against the "
              "per-batch weight-update writes.\n");

  // With REMAPD_HEALTH set, survey a small faulted RCS and record one
  // health snapshot, so the bench's stream carries per-crossbar
  // BIST-estimate-vs-truth rows (the estimation-error table's input).
  if (obs::enabled()) {
    obs::Observatory& ob = obs::Observatory::instance();
    RcsConfig rcfg;
    rcfg.tiles_x = rcfg.tiles_y = 2;
    Rcs rcs(rcfg);
    Rng rng(7);
    std::size_t total_faults = 0;
    for (XbarId x = 0; x < rcs.total_crossbars(); ++x) {
      const std::size_t count = 11 * x;  // spread of densities
      rcs.crossbar(x).inject_random_faults(count, 0.9, rng);
      total_faults += rcs.crossbar(x).fault_count();
    }
    WeightMapper mapper(rcs);
    mapper.map_layers({{256, 256}});  // a few tasks so phases appear

    FaultDensityMap density;
    density.reset(rcs.total_crossbars());
    std::uint64_t cycles = 0;
    density.update(bist.survey(rcs, &cycles));

    obs::RunInfo info;
    info.model = "(none)";
    info.policy = "bist-timing-bench";
    info.dataset = "(synthetic faults)";
    info.crossbars = rcs.total_crossbars();
    info.tiles_x = rcfg.tiles_x;
    info.tiles_y = rcfg.tiles_y;
    info.xbar_rows = rcfg.xbar_rows;
    info.xbar_cols = rcfg.xbar_cols;
    ob.begin_run(info);

    obs::EpochObs eo;
    eo.total_faults = total_faults;
    eo.bist_cycles = cycles;
    ob.sample_epoch(eo, rcs, density, mapper);
  }

  if (telemetry::enabled())
    std::fputs(telemetry::summary_table().c_str(), stderr);
  return 0;
}
