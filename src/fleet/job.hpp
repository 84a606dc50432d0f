// Fleet job model: what a user submits (JobSpec, parsed from a job file by
// fleet/jobfile.cpp) and the runtime record the scheduler keeps for it
// (FleetJob). A job is one complete fault-aware training run — model,
// remap policy, epoch horizon, fault scenario — that the fleet scheduler
// multiplexes across the chip pool in epoch-granularity slices.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "trainer/fault_aware_trainer.hpp"

namespace remapd {
namespace fleet {

/// "no chip" / "no job" sentinel for the fleet's index-based handles.
inline constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

/// Error of the fleet layer: job-file parse failures (strict, naming line
/// and field), scheduler misuse, impossible fleets.
class FleetError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One training job as submitted: the trainer parameters that matter at
/// fleet scale plus scheduling attributes. Everything not listed here uses
/// recommended_config(model) defaults; the fault scenario is the paper
/// default, time-compressed to the job's epoch horizon.
struct JobSpec {
  std::string name;              ///< unique within a job file
  std::string model = "resnet12";
  std::string policy = "remap-d";
  std::size_t epochs = 8;
  std::size_t train = 256;       ///< training samples (synthetic CIFAR)
  std::size_t test = 128;
  std::uint64_t seed = 42;
  int priority = 0;              ///< higher runs first under `priority`
  /// Multi-bit cell quantization: 0 = continuous fp32 cells (default),
  /// 1..4 = quantized cells of that many bits with stochastic-rounding
  /// array writes. Carried through migration inside the config fingerprint.
  std::size_t cell_bits = 0;
  /// Route the job's MVMs through the int8 GEMM fast path (needs cell_bits).
  bool int8 = false;

  /// Throws FleetError (prefixed with `ctx`) on an empty or zero field;
  /// names and quant fields are left to trainer_config().
  void validate(const std::string& ctx) const;

  /// The full trainer configuration this spec stands for. Identical specs
  /// produce identical configs — the config fingerprint the checkpoint
  /// layer compares on migration restore. Built by make_trainer_config
  /// under `saf` (trainer/scenarios.hpp), whose exceptions it passes on.
  [[nodiscard]] TrainerConfig trainer_config() const;
};

enum class JobState {
  kQueued,     ///< admitted, waiting for a chip
  kRejected,   ///< refused at submission (admission control)
  kRunning,    ///< bound to a chip
  kCompleted,  ///< reached its epoch horizon
  kFailed,     ///< trainer threw; see FleetJob::failure
};

[[nodiscard]] const char* job_state_name(JobState s);

/// Scheduler-side runtime record of one job. Time fields count scheduler
/// steps (one step = one slice of one job), the fleet's virtual clock —
/// deterministic, unlike wall time.
struct FleetJob {
  JobSpec spec;
  TrainerConfig cfg;
  /// Constructed at admission, retained after completion so callers can
  /// read result().history (the fleet CLI dumps it as per-job CSV).
  std::unique_ptr<FaultAwareTrainer> trainer;
  JobState state = JobState::kQueued;
  std::size_t chip = kNoIndex;  ///< bound chip (kNoIndex while not running)
  /// Stable trace-correlation id, assigned at submission (1-based submit
  /// ordinal — deterministic) and carried across migrations: every span
  /// and flow event of this job is tagged with it, so the job reads as one
  /// continuous story in chrome://tracing no matter how many chips it
  /// crossed.
  std::uint64_t trace_id = 0;

  std::size_t submit_step = 0;
  std::size_t admit_step = 0;   ///< first bound to a chip
  std::size_t finish_step = 0;  ///< completed or failed
  std::size_t slices = 0;       ///< scheduling quanta consumed
  std::size_t migrations = 0;
  double busy_seconds = 0.0;    ///< wall time spent inside this job's slices
  std::string failure;          ///< nonempty when state == kFailed
};

}  // namespace fleet
}  // namespace remapd
