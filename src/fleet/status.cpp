#include "fleet/status.hpp"

#include <sstream>

#include "util/json.hpp"

namespace remapd {
namespace fleet {

namespace {

std::string quoted(const std::string& s) {
  return "\"" + json::escape(s) + "\"";
}

void chip_json(std::ostringstream& os, const ChipStatus& c) {
  os << "{\"id\":" << c.id << ",\"name\":" << quoted(c.name)
     << ",\"free\":" << (c.free ? "true" : "false")
     << ",\"job\":" << quoted(c.job) << ",\"health\":" << json::number(c.health)
     << ",\"mean_density\":" << json::number(c.mean_density)
     << ",\"trend_per_epoch\":" << json::number(c.trend_per_epoch)
     << ",\"wear_rounds\":" << c.wear_rounds
     << ",\"native_faults\":" << c.native_faults << "}";
}

void job_json(std::ostringstream& os, const JobStatus& j) {
  os << "{\"name\":" << quoted(j.name) << ",\"model\":" << quoted(j.model)
     << ",\"policy\":" << quoted(j.policy) << ",\"state\":" << quoted(j.state)
     << ",\"trace_id\":" << j.trace_id << ",\"chip\":";
  if (j.has_chip)
    os << j.chip;
  else
    os << "null";
  os << ",\"epochs_completed\":" << j.epochs_completed
     << ",\"epochs_total\":" << j.epochs_total << ",\"slices\":" << j.slices
     << ",\"migrations\":" << j.migrations
     << ",\"last_test_accuracy\":" << json::number(j.last_test_accuracy);
  if (!j.failure.empty()) os << ",\"failure\":" << quoted(j.failure);
  os << "}";
}

}  // namespace

std::string FleetStatus::json() const {
  std::ostringstream os;
  os << "{\"step\":" << step << ",\"done\":" << (done ? "true" : "false")
     << ",\"submitted\":" << submitted << ",\"queued\":" << queued
     << ",\"running\":" << running << ",\"completed\":" << completed
     << ",\"failed\":" << failed << ",\"rejected\":" << rejected
     << ",\"migrations\":" << migrations << ",\"chips\":[";
  for (std::size_t i = 0; i < chips.size(); ++i) {
    if (i) os << ",";
    chip_json(os, chips[i]);
  }
  os << "],\"jobs\":[";
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (i) os << ",";
    job_json(os, jobs[i]);
  }
  os << "]}";
  return os.str();
}

std::string FleetStatus::jobs_json() const {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (i) os << ",";
    job_json(os, jobs[i]);
  }
  os << "]";
  return os.str();
}

void StatusBoard::publish(FleetStatus s) {
  std::lock_guard<std::mutex> lock(mu_);
  status_ = std::move(s);
  ++version_;
}

FleetStatus StatusBoard::read() const {
  std::lock_guard<std::mutex> lock(mu_);
  return status_;
}

std::uint64_t StatusBoard::version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return version_;
}

}  // namespace fleet
}  // namespace remapd
