#include "obs/report.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <sstream>

#include "telemetry/export.hpp"
#include "util/json.hpp"
#include "util/env.hpp"
#include "util/log.hpp"

namespace remapd {
namespace obs {

namespace detail {
std::atomic<bool> g_enabled{false};
}

namespace {

const char* phase_str(const HealthSample& s) {
  if (s.task == kNoTask) return "idle";
  return phase_name(s.phase);
}

/// Task id as a JSON number; idle crossbars get -1 (kNoTask is SIZE_MAX,
/// which a double-based JSON reader would mangle).
long long task_json(TaskId t) {
  return t == kNoTask ? -1 : static_cast<long long>(t);
}

}  // namespace

Observatory& Observatory::instance() {
  static Observatory* inst = new Observatory;  // leaky: see header
  return *inst;
}

void Observatory::begin_run(const RunInfo& info) {
  seal_current_run();
  info_ = info;
  run_active_ = true;
  cum_remaps_.assign(info.crossbars, 0);
}

void Observatory::seal_current_run() {
  const bool empty = !run_active_ && audit_.records().empty() &&
                     epoch_obs_.empty() && health_.samples().empty();
  if (!empty) {
    sealed_jsonl_ += render_current_jsonl();
    sealed_summary_ += render_current_summary(8);
    ++sealed_runs_;
  }
  run_active_ = false;
  audit_.clear();
  health_.clear();
  noc_.clear();
  epoch_obs_.clear();
  cum_remaps_.clear();
  audit_consumed_ = 0;
}

void Observatory::sample_epoch(const EpochObs& e, const Rcs& rcs,
                               const FaultDensityMap& density,
                               const WeightMapper& mapper) {
  if (cum_remaps_.size() < rcs.total_crossbars())
    cum_remaps_.resize(rcs.total_crossbars(), 0);
  const auto& recs = audit_.records();
  for (; audit_consumed_ < recs.size(); ++audit_consumed_) {
    const RemapAuditRecord& r = recs[audit_consumed_];
    if (r.receiver == kNoReceiver) continue;
    if (r.sender < cum_remaps_.size()) ++cum_remaps_[r.sender];
    if (r.receiver < cum_remaps_.size()) ++cum_remaps_[r.receiver];
  }
  health_.sample_epoch(e.epoch, rcs, density, mapper, cum_remaps_);
  epoch_obs_.push_back(e);
}

std::string Observatory::render_current_jsonl() const {
  using json::escape;
  using json::number;
  std::ostringstream os;

  os << "{\"type\":\"run\",\"model\":\"" << escape(info_.model)
     << "\",\"policy\":\"" << escape(info_.policy) << "\",\"dataset\":\""
     << escape(info_.dataset) << "\",\"seed\":" << info_.seed
     << ",\"epochs\":" << info_.epochs << ",\"crossbars\":" << info_.crossbars
     << ",\"tiles_x\":" << info_.tiles_x << ",\"tiles_y\":" << info_.tiles_y
     << ",\"xbar_rows\":" << info_.xbar_rows
     << ",\"xbar_cols\":" << info_.xbar_cols << "}\n";

  for (const RemapAuditRecord& r : audit_.records()) {
    os << "{\"type\":\"remap\",\"epoch\":" << r.epoch << ",\"round\":\""
       << (r.at_training_start ? "start" : "epoch") << "\",\"policy\":\""
       << escape(r.policy) << "\",\"sender\":" << r.sender
       << ",\"receiver\":"
       << (r.receiver == kNoReceiver ? -1
                                     : static_cast<long long>(r.receiver))
       << ",\"candidates\":[";
    for (std::size_t i = 0; i < r.candidates.size(); ++i) {
      if (i) os << ",";
      os << r.candidates[i];
    }
    os << "],\"reason\":\"" << escape(r.reason)
       << "\",\"sender_density\":" << number(r.sender_density)
       << ",\"receiver_density\":" << number(r.receiver_density)
       << ",\"threshold\":" << number(r.threshold) << ",\"hops\":" << r.hops
       << "}\n";
  }

  for (const HealthSample& s : health_.samples())
    os << "{\"type\":\"health\",\"epoch\":" << s.epoch
       << ",\"xbar\":" << s.xbar
       << ",\"true_density\":" << number(s.true_density)
       << ",\"est_density\":" << number(s.est_density) << ",\"sa0\":" << s.sa0
       << ",\"sa1\":" << s.sa1 << ",\"writes\":" << s.writes
       << ",\"remaps\":" << s.remaps << ",\"task\":" << task_json(s.task)
       << ",\"phase\":\"" << phase_str(s) << "\"}\n";

  for (const NocEpochUtil& n : noc_.epochs()) {
    for (std::size_t r = 0; r < n.router_flits.size(); ++r) {
      const auto& links = r < n.link_flits.size()
                              ? n.link_flits[r]
                              : std::array<std::uint64_t, 4>{0, 0, 0, 0};
      os << "{\"type\":\"noc\",\"epoch\":" << n.epoch << ",\"router\":" << r
         << ",\"flits\":" << n.router_flits[r] << ",\"north\":" << links[0]
         << ",\"east\":" << links[1] << ",\"south\":" << links[2]
         << ",\"west\":" << links[3] << "}\n";
    }
  }

  const auto& stats = health_.epoch_stats();
  for (const EpochObs& e : epoch_obs_) {
    const HealthEpochStats* st = nullptr;
    for (const HealthEpochStats& s : stats)
      if (s.epoch == e.epoch) st = &s;
    const NocEpochUtil* nu = nullptr;
    for (const NocEpochUtil& n : noc_.epochs())
      if (n.epoch == e.epoch) nu = &n;
    os << "{\"type\":\"epoch\",\"epoch\":" << e.epoch
       << ",\"remaps\":" << e.remaps << ",\"new_faults\":" << e.new_faults
       << ",\"total_faults\":" << e.total_faults
       << ",\"train_loss\":" << number(e.train_loss)
       << ",\"test_accuracy\":" << number(e.test_accuracy)
       << ",\"est_mean_abs_err\":" << number(st ? st->est_error.mean_abs : 0.0)
       << ",\"est_max_abs_err\":" << number(st ? st->est_error.max_abs : 0.0)
       << ",\"bist_cycles\":" << e.bist_cycles
       << ",\"noc_cycles\":" << (nu ? nu->cycles : 0)
       << ",\"noc_packets\":" << (nu ? nu->packets : 0) << "}\n";
  }
  return os.str();
}

std::string Observatory::render_current_summary(std::size_t top_k) const {
  std::ostringstream os;
  char line[256];

  os << "== reliability observatory: run " << sealed_runs_ << " ==\n";
  os << "model=" << info_.model << " policy=" << info_.policy
     << " dataset=" << info_.dataset << " seed=" << info_.seed << " ("
     << info_.crossbars << " crossbars on " << info_.tiles_x << "x"
     << info_.tiles_y << " tiles)\n";

  const auto& stats = health_.epoch_stats();
  if (!stats.empty()) {
    const std::size_t last_epoch = stats.back().epoch;
    os << "\ntop-" << top_k << " degraded crossbars (epoch " << last_epoch
       << ", by true fault density)\n";
    std::snprintf(line, sizeof(line), "%6s %10s %10s %6s %6s %8s %7s %s\n",
                  "xbar", "true_dens", "est_dens", "sa0", "sa1", "writes",
                  "remaps", "task");
    os << line;
    for (const HealthSample& s : health_.top_degraded(last_epoch, top_k)) {
      std::snprintf(line, sizeof(line),
                    "%6zu %10.5f %10.5f %6zu %6zu %8zu %7zu ", s.xbar,
                    s.true_density, s.est_density, s.sa0, s.sa1, s.writes,
                    s.remaps);
      os << line;
      if (s.task == kNoTask)
        os << "idle\n";
      else
        os << "#" << s.task << " (" << phase_name(s.phase) << ")\n";
    }

    os << "\nBIST estimation error (est - true, per crossbar)\n";
    std::snprintf(line, sizeof(line), "%6s %10s %10s %12s\n", "epoch",
                  "mean_abs", "max_abs", "mean_signed");
    os << line;
    for (const HealthEpochStats& s : stats) {
      std::snprintf(line, sizeof(line), "%6zu %10.6f %10.6f %12.6f\n", s.epoch,
                    s.est_error.mean_abs, s.est_error.max_abs,
                    s.est_error.mean_signed);
      os << line;
    }
  }

  // Remap churn: per-epoch swap counts from the audit log plus the
  // most-swapped crossbars over the whole run.
  if (audit_.size()) {
    std::size_t start_swaps = 0, no_receiver = 0;
    for (const RemapAuditRecord& r : audit_.records()) {
      if (r.receiver == kNoReceiver)
        ++no_receiver;
      else if (r.at_training_start)
        ++start_swaps;
    }
    os << "\nremap churn (" << audit_.size() << " audited decisions, "
       << no_receiver << " without an eligible receiver)\n";
    if (start_swaps)
      os << "  training-start placement round: " << start_swaps << " swaps\n";
    for (const EpochObs& e : epoch_obs_) {
      std::snprintf(line, sizeof(line), "  epoch %zu: %zu swaps\n", e.epoch,
                    audit_.swaps_in_epoch(e.epoch));
      os << line;
    }

    std::vector<std::pair<std::size_t, XbarId>> churn;
    for (XbarId x = 0; x < cum_remaps_.size(); ++x)
      if (cum_remaps_[x]) churn.emplace_back(cum_remaps_[x], x);
    std::stable_sort(churn.begin(), churn.end(),
                     [](const auto& a, const auto& b) { return a.first > b.first; });
    if (churn.size() > top_k) churn.resize(top_k);
    if (!churn.empty()) {
      os << "  most-remapped crossbars:";
      for (const auto& [n, x] : churn) os << " #" << x << "(" << n << ")";
      os << "\n";
    }
  }

  if (!noc_.epochs().empty()) {
    os << "\nNoC remap traffic\n";
    std::snprintf(line, sizeof(line), "%6s %10s %8s %10s %s\n", "epoch",
                  "cycles", "packets", "flit_hops", "hottest router (flits)");
    os << line;
    for (const NocEpochUtil& n : noc_.epochs()) {
      std::size_t hot = 0;
      std::uint64_t hot_flits = 0;
      for (std::size_t r = 0; r < n.router_flits.size(); ++r)
        if (n.router_flits[r] > hot_flits) {
          hot_flits = n.router_flits[r];
          hot = r;
        }
      std::snprintf(line, sizeof(line),
                    "%6zu %10llu %8zu %10llu r%zu (%llu)\n", n.epoch,
                    static_cast<unsigned long long>(n.cycles), n.packets,
                    static_cast<unsigned long long>(n.flit_hops), hot,
                    static_cast<unsigned long long>(hot_flits));
      os << line;
    }
  }

  os << "\n";
  return os.str();
}

bool Observatory::anything_recorded() const {
  return run_active_ || sealed_runs_ > 0 || audit_.size() > 0 ||
         !health_.samples().empty();
}

std::string Observatory::jsonl() const {
  return sealed_jsonl_ + render_current_jsonl();
}

std::string Observatory::summary(std::size_t top_k) const {
  return sealed_summary_ + render_current_summary(top_k);
}

bool Observatory::write_reports(const std::string& path) {
  // On a resumed run the interrupted leg already wrote its epochs; append
  // this leg's stream rather than truncating them away.
  const bool append = telemetry::resume_append();
  const bool ok = telemetry::write_file(path, jsonl(), append);
  const std::string summary_path = path == "-" ? "-" : path + ".summary.txt";
  telemetry::write_file(summary_path, summary(), append);
  return ok;
}

void Observatory::flush_to_env_path() {
  const std::string path = env_str("REMAPD_HEALTH", "");
  if (path.empty() || !anything_recorded()) return;
  if (write_reports(path))
    log_info("obs: wrote health stream to ", path, " (+ ",
             path == "-" ? "stdout" : path + ".summary.txt", ")");
}

void Observatory::reset() {
  run_active_ = false;
  info_ = RunInfo{};
  audit_.clear();
  health_.clear();
  noc_.clear();
  epoch_obs_.clear();
  cum_remaps_.clear();
  audit_consumed_ = 0;
  sealed_jsonl_.clear();
  sealed_summary_.clear();
  sealed_runs_ = 0;
}

namespace {

std::terminate_handler g_prev_terminate = nullptr;

[[noreturn]] void terminate_flush() {
  // Uncaught exception / std::terminate path: persist the health stream
  // before handing over to the previous handler (which aborts).
  Observatory::instance().flush_to_env_path();
  if (g_prev_terminate) g_prev_terminate();
  std::abort();
}

void atexit_flush() { Observatory::instance().flush_to_env_path(); }

}  // namespace

void init_from_env() {
  static std::once_flag once;
  std::call_once(once, [] {
    if (env_str("REMAPD_HEALTH", "").empty()) return;
    set_enabled(true);
    std::atexit(atexit_flush);
    g_prev_terminate = std::set_terminate(terminate_flush);
  });
}

namespace {
/// Static-init hook: any binary linking the obs library gets REMAPD_HEALTH
/// wiring without an explicit call (same idiom as telemetry/trace.cpp).
const bool g_env_init = (init_from_env(), true);
}  // namespace

}  // namespace obs
}  // namespace remapd
