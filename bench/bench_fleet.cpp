// Fleet throughput benchmark: a fixed 3-chip / 6-job mix (the shape of the
// EXPERIMENTS.md fleet demo, shrunk to bench scale) driven to completion
// by the fleet scheduler, reporting jobs/min, epochs/min, and the exact
// queue-wait / completion-latency percentiles in scheduler steps.
//
// The step-denominated numbers (latency percentiles, slice/migration
// counts) are deterministic for a given job mix; the /min rates are wall
// clock and track machine speed — together they are the BENCH_fleet.json
// perf-trajectory record CI archives per commit (`--json PATH`), which
// declares the gate class of each field in its "gates" object.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "fleet/scheduler.hpp"

namespace {

using namespace remapd;

/// The benchmark's job mix: six small jobs across three policies and two
/// priorities — enough heterogeneity to exercise queueing (6 jobs on 3
/// chips) without pushing the bench past ~10 s.
std::vector<fleet::JobSpec> bench_jobs() {
  std::vector<fleet::JobSpec> jobs;
  const char* policies[] = {"remap-d", "static", "none"};
  for (std::size_t i = 0; i < 6; ++i) {
    fleet::JobSpec j;
    j.name = "job" + std::to_string(i);
    j.model = "resnet12";
    j.policy = policies[i % 3];
    j.epochs = 2;
    j.train = 48;
    j.test = 32;
    j.seed = 100 + i;
    j.priority = static_cast<int>(i % 2);
    jobs.push_back(std::move(j));
  }
  return jobs;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "bench_fleet: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }

  fleet::ChipSpec chip;
  chip.name = "chip";
  // Mild wear so the health machinery is on the measured path.
  chip.wear_xbar_fraction = 0.02;
  chip.wear_cell_fraction = 0.002;

  fleet::ChipPool pool = fleet::ChipPool::homogeneous(3, chip);
  fleet::SchedulerConfig cfg;
  cfg.policy = fleet::SchedPolicy::kPriority;
  fleet::Scheduler scheduler(pool, cfg);
  for (fleet::JobSpec& j : bench_jobs()) scheduler.submit(std::move(j));

  const fleet::FleetSummary s = scheduler.run();
  std::printf("== Fleet throughput (3 chips, 6 jobs) ==\n\n");
  std::fputs(s.table().c_str(), stdout);
  if (s.completed != s.submitted) {
    std::printf("FAIL: %zu of %zu jobs did not complete\n",
                s.submitted - s.completed, s.submitted);
    return 1;
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "bench_fleet: cannot write %s\n",
                   json_path.c_str());
      return 2;
    }
    // Step counts, outcomes and step-clock percentiles are exact; the
    // wall-clock run time is bounded above and the rates below.
    out << "{\"bench\":\"fleet\",\"summary\":" << s.json()
        << R"(,"gates":{"exact":["summary.chips","summary.submitted",)"
        << R"("summary.rejected","summary.completed","summary.failed",)"
        << R"("summary.migrations","summary.steps","summary.epochs_trained",)"
        << R"("summary.queue_wait_steps.count",)"
        << R"("summary.queue_wait_steps.mean","summary.queue_wait_steps.p50",)"
        << R"("summary.queue_wait_steps.p95","summary.queue_wait_steps.p99",)"
        << R"("summary.completion_latency_steps.count",)"
        << R"("summary.completion_latency_steps.mean",)"
        << R"("summary.completion_latency_steps.p50",)"
        << R"("summary.completion_latency_steps.p95",)"
        << R"("summary.completion_latency_steps.p99"],)"
        << R"("wall":["summary.wall_seconds"],)"
        << R"("floor":["summary.jobs_per_min","summary.epochs_per_min"]}})"
        << "\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
