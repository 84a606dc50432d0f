#include "telemetry/trace.hpp"

#include <chrono>

#include "telemetry/export.hpp"
#include "telemetry/registry.hpp"
#include "util/json.hpp"

namespace remapd {
namespace telemetry {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

namespace {

// Env autoconfiguration: runs during static initialization of any binary
// that links an instrumented translation unit, so REMAPD_TRACE /
// REMAPD_METRICS work without per-main() wiring.
const bool g_env_init = [] {
  init_from_env();
  return true;
}();

// Per-thread span nesting depth.
thread_local std::uint32_t t_depth = 0;

/// Fold the active job label and trace id (if any) into an event's args
/// JSON so every span/instant of a multiplexed fleet job is attributable
/// in the trace, and a migrated job's spans share one id across chips.
std::string with_job_label(std::string args_json) {
  std::string label = job_label();
  const std::uint64_t trace_id = job_trace_id();
  if (label.empty() && trace_id == 0) return args_json;
  // The registry label is the metric qualifier ("job:<name>"); the trace
  // tag carries just the name.
  if (label.rfind("job:", 0) == 0) label.erase(0, 4);
  std::string tag;
  if (!label.empty()) tag = "\"job\":\"" + json::escape(label) + "\"";
  if (trace_id != 0) {
    if (!tag.empty()) tag += ",";
    tag += "\"trace_id\":" + std::to_string(trace_id);
  }
  if (args_json.empty()) return "{" + tag + "}";
  // args_json is a JSON object by contract; splice the tag in as its
  // first member.
  const std::size_t brace = args_json.find('{');
  if (brace == std::string::npos) return args_json;  // malformed: leave as-is
  const std::size_t first = args_json.find_first_not_of(" \t\r\n", brace + 1);
  const bool empty_obj = first == std::string::npos || args_json[first] == '}';
  args_json.insert(brace + 1, empty_obj ? tag : tag + ",");
  return args_json;
}

}  // namespace

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

std::uint64_t now_ns() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                           epoch)
          .count());
}

std::uint32_t current_thread_id() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

TraceBuffer& TraceBuffer::instance() {
  // Leaked so atexit exporters outlive static destruction (see Registry).
  static TraceBuffer* b = new TraceBuffer();
  return *b;
}

void TraceBuffer::record(TraceEvent ev) {
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() >= kMaxEvents) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(ev));
}

std::vector<TraceEvent> TraceBuffer::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::size_t TraceBuffer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::uint64_t TraceBuffer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void TraceBuffer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  dropped_ = 0;
}

TraceSpan::TraceSpan(std::string_view name, std::string_view cat,
                     std::string args_json) {
  if (!enabled()) return;
  active_ = true;
  name_.assign(name);
  cat_.assign(cat);
  args_ = with_job_label(std::move(args_json));
  depth_ = t_depth++;
  start_ = now_ns();
}

TraceSpan::~TraceSpan() {
  if (!active_) return;
  const std::uint64_t end = now_ns();
  --t_depth;
  TraceEvent ev;
  ev.name = std::move(name_);
  ev.cat = std::move(cat_);
  ev.args_json = std::move(args_);
  ev.ts_ns = start_;
  ev.dur_ns = end - start_;
  ev.tid = current_thread_id();
  ev.depth = depth_;
  ev.ph = 'X';
  TraceBuffer::instance().record(std::move(ev));
}

void trace_instant(std::string_view name, std::string_view cat,
                   std::string args_json) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.name.assign(name);
  ev.cat.assign(cat);
  ev.args_json = with_job_label(std::move(args_json));
  ev.ts_ns = now_ns();
  ev.tid = current_thread_id();
  ev.depth = t_depth;
  ev.ph = 'i';
  TraceBuffer::instance().record(std::move(ev));
}

namespace {

void record_flow(char ph, std::string_view name, std::string_view cat,
                 std::uint64_t flow_id, std::string args_json) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.name.assign(name);
  ev.cat.assign(cat);
  ev.args_json = with_job_label(std::move(args_json));
  ev.ts_ns = now_ns();
  ev.flow_id = flow_id;
  ev.tid = current_thread_id();
  ev.depth = t_depth;
  ev.ph = ph;
  TraceBuffer::instance().record(std::move(ev));
}

}  // namespace

void trace_flow_start(std::string_view name, std::string_view cat,
                      std::uint64_t flow_id, std::string args_json) {
  record_flow('s', name, cat, flow_id, std::move(args_json));
}

void trace_flow_finish(std::string_view name, std::string_view cat,
                       std::uint64_t flow_id, std::string args_json) {
  record_flow('f', name, cat, flow_id, std::move(args_json));
}

}  // namespace telemetry
}  // namespace remapd
