#include "fleet/job.hpp"

#include "trainer/scenarios.hpp"

namespace remapd {
namespace fleet {

void JobSpec::validate(const std::string& ctx) const {
  auto fail = [&](const std::string& field, const std::string& why) {
    throw FleetError(ctx + ": field '" + field + "': " + why);
  };
  if (name.empty()) fail("name", "must not be empty");
  if (model.empty()) fail("model", "must not be empty");
  if (policy.empty()) fail("policy", "must not be empty");
  if (epochs == 0) fail("epochs", "must be >= 1");
  if (train == 0) fail("train", "must be >= 1");
  if (test == 0) fail("test", "must be >= 1");
}

TrainerConfig JobSpec::trainer_config() const {
  ExperimentSpec s{.model = model, .policy = policy, .epochs = epochs,
                   .train = train, .test = test, .seed = seed,
                   .fault_model = "saf"};
  if (cell_bits > 0) s.quant = {.enabled = true, .cell_bits = cell_bits};
  s.quant.int8_gemm = int8;
  return make_trainer_config(s);
}

const char* job_state_name(JobState s) {
  switch (s) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRejected:
      return "rejected";
    case JobState::kRunning:
      return "running";
    case JobState::kCompleted:
      return "completed";
    case JobState::kFailed:
      return "failed";
  }
  return "?";
}

}  // namespace fleet
}  // namespace remapd
