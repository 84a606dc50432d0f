// Fleet-mode simulation server CLI: ingest a job file (CSV or JSON), run
// every job to completion across a pool of degrading simulated RCS chips,
// and report fleet throughput, queue-wait / completion-latency percentiles,
// and migration activity.
//
// Usage: remapd_fleet --jobs FILE [--flag value]...
//   --jobs FILE         job file; '['-prefixed content parses as a JSON
//                       array of objects, anything else as headered CSV.
//                       Fields: name (required), model, policy, epochs,
//                       train, test, seed, priority
//   --chips N           chips in the pool (default 3)
//   --sched NAME        fifo|priority (default fifo)
//   --slice N           epochs per scheduling quantum (default 1)
//   --max-queued N      reject submissions beyond N waiting (0 = unbounded)
//   --migrate-below X   migrate when chip health score < X (0 = off)
//   --chip-native PCT   per-chip native stuck-cell density (%, default 0)
//   --chip-wear-n PCT   crossbars gaining faults per service round (%)
//   --chip-wear-m PCT   new faulty cells per selected crossbar (%)
//   --chip-seed N       chip pool base seed (default 1)
//   --force-migrate-at N  force one migration per job once N epochs are
//                       done (determinism tests / CI smoke)
//   --csv PATH          per-job per-epoch training history (deterministic;
//                       byte-comparable across fleet layouts)
//   --summary-json PATH fleet summary as a flat JSON object
//   --serve PORT        daemon mode: serve /metrics /healthz /status /jobs
//                       on 127.0.0.1:PORT (0 = kernel-assigned) while the
//                       fleet runs, then keep serving the final state until
//                       SIGINT. Serving never perturbs the simulation: the
//                       outputs above stay byte-identical to an unserved
//                       run. Implies telemetry collection.
//   --verbose           per-step scheduler log on stderr
//
// Numeric flags take a plain non-negative decimal (PORT at most 65535).
// Exit codes: 0 all jobs completed, 1 some job failed/rejected, 2 bad
// usage (a malformed flag value included) or unreadable job file.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>

#include "fleet/jobfile.hpp"
#include "fleet/scheduler.hpp"
#include "fleet/status.hpp"
#include "obs/http_server.hpp"
#include "telemetry/telemetry.hpp"
#include "util/csv.hpp"
#include "util/env.hpp"

namespace {

using namespace remapd;

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr, "remapd_fleet: %s (see header for flags)\n",
               msg.c_str());
  std::exit(2);
}

std::atomic<bool> g_stop{false};

void on_sigint(int) { g_stop.store(true); }

}  // namespace

int main(int argc, char** argv) {
  std::string jobs_path;
  std::string csv_path;
  std::string summary_json_path;
  bool serve = false;
  std::uint16_t serve_port = 0;
  std::size_t chips = 3;
  fleet::ChipSpec chip_base;
  chip_base.name = "chip";
  fleet::SchedulerConfig sched;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage("missing value for " + flag);
      return argv[++i];
    };
    auto uint_arg = [&](std::uint64_t max) -> std::uint64_t {
      const char* v = next();
      try {
        return parse_uint(flag, v, max);
      } catch (const std::runtime_error& e) {
        usage(e.what());
      }
    };
    auto nonneg_arg = [&]() -> double {
      const char* v = next();
      try {
        return parse_nonneg(flag, v);
      } catch (const std::runtime_error& e) {
        usage(e.what());
      }
    };
    auto count = [&] {
      return static_cast<std::size_t>(
          uint_arg(std::numeric_limits<std::size_t>::max()));
    };
    if (flag == "--jobs") {
      jobs_path = next();
    } else if (flag == "--chips") {
      chips = count();
    } else if (flag == "--sched") {
      sched.policy = fleet::sched_policy_from(next());
    } else if (flag == "--slice") {
      sched.slice_epochs = count();
    } else if (flag == "--max-queued") {
      sched.max_queued = count();
    } else if (flag == "--migrate-below") {
      sched.migrate_below = nonneg_arg();
    } else if (flag == "--chip-native") {
      chip_base.native_fault_density = nonneg_arg() / 100.0;
    } else if (flag == "--chip-wear-n") {
      chip_base.wear_xbar_fraction = nonneg_arg() / 100.0;
    } else if (flag == "--chip-wear-m") {
      chip_base.wear_cell_fraction = nonneg_arg() / 100.0;
    } else if (flag == "--chip-seed") {
      chip_base.seed =
          uint_arg(std::numeric_limits<std::uint64_t>::max());
    } else if (flag == "--force-migrate-at") {
      sched.force_migrate_at_epoch = count();
    } else if (flag == "--csv") {
      csv_path = next();
    } else if (flag == "--summary-json") {
      summary_json_path = next();
    } else if (flag == "--serve") {
      serve = true;
      serve_port = static_cast<std::uint16_t>(uint_arg(65535));
    } else if (flag == "--verbose") {
      sched.verbose = true;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (jobs_path.empty()) usage("--jobs FILE is required");
  if (chips == 0) usage("--chips must be >= 1");

  fleet::StatusBoard board;
  obs::HttpServer server;
  if (serve) {
    // Daemon mode. Metrics come from the telemetry registry, so collection
    // must be on; /status and /jobs read only published StatusBoard
    // snapshots, so a polling client cannot perturb the run.
    telemetry::set_enabled(true);
    sched.status_board = &board;
    sched.stop_requested = &g_stop;
    std::signal(SIGINT, on_sigint);
    std::signal(SIGTERM, on_sigint);
    server.route("/healthz", [](const obs::HttpRequest&) {
      return obs::HttpResponse::text("ok\n");
    });
    server.route("/metrics", [](const obs::HttpRequest&) {
      obs::HttpResponse r;
      r.content_type = telemetry::kPrometheusContentType;
      r.body = telemetry::prometheus_text();
      return r;
    });
    server.route("/status", [&board](const obs::HttpRequest&) {
      return obs::HttpResponse::json(board.read().json());
    });
    server.route("/jobs", [&board](const obs::HttpRequest&) {
      return obs::HttpResponse::json(board.read().jobs_json());
    });
  }

  try {
    const std::vector<fleet::JobSpec> specs = fleet::load_job_file(jobs_path);
    fleet::ChipPool pool = fleet::ChipPool::homogeneous(chips, chip_base);
    fleet::Scheduler scheduler(pool, sched);
    for (const fleet::JobSpec& spec : specs) scheduler.submit(spec);

    if (serve) {
      scheduler.publish_status();  // /status is valid before the first step
      server.start(serve_port);
      std::fprintf(stderr,
                   "remapd_fleet: serving on http://127.0.0.1:%u/ "
                   "(/metrics /healthz /status /jobs)\n",
                   static_cast<unsigned>(server.port()));
    }

    const fleet::FleetSummary summary = scheduler.run();

    std::printf("%-12s %-10s %-10s %-9s %6s %6s %6s %8s %9s\n", "job",
                "model", "policy", "state", "epochs", "slices", "migr",
                "latency", "final_acc");
    for (const fleet::FleetJob& job : scheduler.jobs()) {
      const std::size_t epochs =
          job.trainer ? job.trainer->epochs_completed() : 0;
      const double acc =
          job.trainer ? job.trainer->result().final_test_accuracy : 0.0;
      std::printf("%-12s %-10s %-10s %-9s %6zu %6zu %6zu %8zu %9.3f\n",
                  job.spec.name.c_str(), job.spec.model.c_str(),
                  job.spec.policy.c_str(), fleet::job_state_name(job.state),
                  epochs, job.slices, job.migrations,
                  job.finish_step - job.submit_step, acc);
      if (!job.failure.empty())
        std::printf("%-12s   ^ %s\n", "", job.failure.c_str());
    }
    for (const fleet::MigrationRecord& m : scheduler.migrations())
      std::printf("migration: '%s' chip%zu -> chip%zu at epoch %zu (step "
                  "%zu, %zu byte image)\n",
                  m.job.c_str(), m.from_chip, m.to_chip, m.at_epoch, m.step,
                  m.image_bytes);
    std::fputs(summary.table().c_str(), stdout);

    if (!csv_path.empty()) {
      CsvWriter csv(csv_path);
      csv.header({"job", "model", "policy", "epoch", "loss", "train_acc",
                  "test_acc", "remaps", "faults", "new_faults"});
      for (const fleet::FleetJob& job : scheduler.jobs()) {
        if (!job.trainer) continue;
        for (const EpochRecord& e : job.trainer->result().history)
          csv.row(job.spec.name, job.spec.model, job.spec.policy, e.epoch,
                  e.train_loss, e.train_accuracy, e.test_accuracy, e.remaps,
                  e.total_faults, e.new_faults);
      }
      std::printf("wrote %s\n", csv_path.c_str());
    }
    if (!summary_json_path.empty()) {
      std::ofstream out(summary_json_path);
      out << summary.json() << "\n";
      std::printf("wrote %s\n", summary_json_path.c_str());
    }
    if (telemetry::enabled())
      std::fputs(telemetry::summary_table().c_str(), stderr);

    if (serve) {
      // All outputs are on disk; keep answering polls on the final state
      // until the operator interrupts. A SIGINT that already landed during
      // run() (partial fleet) skips the linger entirely.
      if (!g_stop.load())
        std::fprintf(stderr,
                     "remapd_fleet: run complete; serving final state until "
                     "SIGINT\n");
      while (!g_stop.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      server.stop();
      // Final flush with the server thread already joined — idempotent
      // against the atexit flush that follows (telemetry/export.cpp).
      telemetry::flush_to_env_paths();
    }

    return summary.completed == summary.submitted ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "remapd_fleet: %s\n", e.what());
    return 2;
  }
}
