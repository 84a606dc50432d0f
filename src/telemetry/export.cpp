#include "telemetry/export.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <vector>

#include "telemetry/registry.hpp"
#include "telemetry/trace.hpp"
#include "util/env.hpp"
#include "util/json.hpp"
#include "util/log.hpp"

namespace remapd {
namespace telemetry {

namespace {

/// Microseconds with ns resolution, the unit chrome://tracing expects.
std::string us_from_ns(std::uint64_t ns) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  return buf;
}

void append_event_fields(std::ostringstream& os, const TraceEvent& ev) {
  os << "\"name\":\"" << json::escape(ev.name) << "\",\"cat\":\""
     << json::escape(ev.cat) << "\",\"ph\":\"" << ev.ph << "\"";
}

/// Exact nearest-rank percentile over a sorted sample vector.
std::uint64_t exact_percentile(const std::vector<std::uint64_t>& sorted,
                               double p) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(std::max<double>(
      1.0, std::ceil(p * static_cast<double>(sorted.size()))));
  return sorted[std::min(rank, sorted.size()) - 1];
}

struct SpanSummary {
  std::vector<std::uint64_t> durations_ns;
  std::uint64_t total_ns = 0;
};

std::map<std::string, SpanSummary> summarize_spans(
    const std::vector<TraceEvent>& events) {
  std::map<std::string, SpanSummary> by_name;
  for (const TraceEvent& ev : events) {
    if (ev.ph != 'X') continue;
    SpanSummary& s = by_name[ev.name];
    s.durations_ns.push_back(ev.dur_ns);
    s.total_ns += ev.dur_ns;
  }
  for (auto& [name, s] : by_name)
    std::sort(s.durations_ns.begin(), s.durations_ns.end());
  return by_name;
}

double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace

std::string chrome_trace_json() {
  const std::vector<TraceEvent> events = TraceBuffer::instance().snapshot();
  std::ostringstream os;
  os << "[";
  bool first = true;
  for (const TraceEvent& ev : events) {
    if (!first) os << ",";
    first = false;
    os << "\n{";
    append_event_fields(os, ev);
    os << ",\"ts\":" << us_from_ns(ev.ts_ns);
    if (ev.ph == 'X') os << ",\"dur\":" << us_from_ns(ev.dur_ns);
    if (ev.ph == 'i') os << ",\"s\":\"t\"";  // thread-scoped instant
    if (ev.ph == 's' || ev.ph == 'f') os << ",\"id\":" << ev.flow_id;
    if (ev.ph == 'f') os << ",\"bp\":\"e\"";  // bind to enclosing slice
    os << ",\"pid\":1,\"tid\":" << ev.tid;
    if (!ev.args_json.empty())
      os << ",\"args\":" << ev.args_json;
    os << "}";
  }
  os << "\n]\n";
  return os.str();
}

std::string jsonl() {
  std::ostringstream os;
  for (const TraceEvent& ev : TraceBuffer::instance().snapshot()) {
    const char* type = ev.ph == 'X'   ? "span"
                       : ev.ph == 's' ? "flow_start"
                       : ev.ph == 'f' ? "flow_finish"
                                      : "instant";
    os << "{\"type\":\"" << type << "\",";
    append_event_fields(os, ev);
    os << ",\"ts_ns\":" << ev.ts_ns << ",\"dur_ns\":" << ev.dur_ns
       << ",\"tid\":" << ev.tid << ",\"depth\":" << ev.depth;
    if (ev.flow_id) os << ",\"flow_id\":" << ev.flow_id;
    if (!ev.args_json.empty()) os << ",\"args\":" << ev.args_json;
    os << "}\n";
  }
  Registry& reg = Registry::instance();
  for (const auto& [name, value] : reg.counters())
    os << "{\"type\":\"counter\",\"name\":\"" << json::escape(name)
       << "\",\"value\":" << value << "}\n";
  for (const auto& [name, value] : reg.gauges())
    os << "{\"type\":\"gauge\",\"name\":\"" << json::escape(name)
       << "\",\"value\":" << json::number(value) << "}\n";
  for (const auto& [name, h] : reg.histograms())
    os << "{\"type\":\"histogram\",\"name\":\"" << json::escape(name)
       << "\",\"count\":" << h.count << ",\"sum\":" << h.sum
       << ",\"min\":" << h.min << ",\"max\":" << h.max << ",\"p50\":" << h.p50
       << ",\"p95\":" << h.p95 << ",\"p99\":" << h.p99 << "}\n";
  return os.str();
}

std::string summary_table() {
  std::ostringstream os;
  os << "== telemetry summary ==\n";

  const auto spans = summarize_spans(TraceBuffer::instance().snapshot());
  if (!spans.empty()) {
    char line[256];
    os << "\nspans (wall time)\n";
    std::snprintf(line, sizeof(line), "%-32s %8s %12s %10s %10s %10s\n",
                  "name", "count", "total(ms)", "p50(ms)", "p95(ms)",
                  "max(ms)");
    os << line;
    for (const auto& [name, s] : spans) {
      std::snprintf(line, sizeof(line),
                    "%-32s %8zu %12.3f %10.3f %10.3f %10.3f\n", name.c_str(),
                    s.durations_ns.size(), ms(s.total_ns),
                    ms(exact_percentile(s.durations_ns, 0.50)),
                    ms(exact_percentile(s.durations_ns, 0.95)),
                    ms(s.durations_ns.empty() ? 0 : s.durations_ns.back()));
      os << line;
    }
  }

  Registry& reg = Registry::instance();
  const auto counters = reg.counters();
  if (!counters.empty()) {
    os << "\ncounters\n";
    for (const auto& [name, value] : counters) {
      char line[256];
      std::snprintf(line, sizeof(line), "%-48s %16llu\n", name.c_str(),
                    static_cast<unsigned long long>(value));
      os << line;
    }
  }

  const auto gauges = reg.gauges();
  if (!gauges.empty()) {
    os << "\ngauges\n";
    for (const auto& [name, value] : gauges) {
      char line[256];
      std::snprintf(line, sizeof(line), "%-48s %16.6g\n", name.c_str(), value);
      os << line;
    }
  }

  const auto hists = reg.histograms();
  if (!hists.empty()) {
    char line[256];
    os << "\nhistograms\n";
    std::snprintf(line, sizeof(line), "%-32s %8s %12s %12s %12s %12s\n",
                  "name", "count", "mean", "p50", "p95", "max");
    os << line;
    for (const auto& [name, h] : hists) {
      std::snprintf(line, sizeof(line),
                    "%-32s %8llu %12.1f %12llu %12llu %12llu\n", name.c_str(),
                    static_cast<unsigned long long>(h.count), h.mean(),
                    static_cast<unsigned long long>(h.p50),
                    static_cast<unsigned long long>(h.p95),
                    static_cast<unsigned long long>(h.max));
      os << line;
    }
  }

  const std::uint64_t dropped = TraceBuffer::instance().dropped();
  if (dropped)
    os << "\n(" << dropped << " trace events dropped at the buffer cap)\n";
  return os.str();
}

bool write_file(const std::string& path, const std::string& contents,
                bool append) {
  if (path == "-") {
    std::fwrite(contents.data(), 1, contents.size(), stdout);
    return true;
  }
  std::ofstream f(path,
                  std::ios::binary | (append ? std::ios::app : std::ios::trunc));
  if (!f) {
    log_warn("telemetry: cannot open ", path, " for writing");
    return false;
  }
  f << contents;
  return static_cast<bool>(f);
}

bool write_file(const std::string& path, const std::string& contents) {
  return write_file(path, contents, false);
}

namespace {
std::atomic<bool> g_resume_append{false};
}  // namespace

void set_resume_append(bool on) {
  g_resume_append.store(on, std::memory_order_relaxed);
}

bool resume_append() {
  return g_resume_append.load(std::memory_order_relaxed);
}

std::string versioned_resume_path(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  std::size_t dot = path.find_last_of('.');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash))
    dot = path.size();
  for (unsigned n = 1;; ++n) {
    std::string candidate = path.substr(0, dot) + ".resume" +
                            std::to_string(n) + path.substr(dot);
    if (!std::ifstream(candidate).good()) return candidate;
  }
}

bool write_chrome_trace(const std::string& path) {
  // A Chrome trace is one JSON array; a resumed run cannot append to the
  // interrupted leg's array, so it versions the path instead.
  const std::string target =
      resume_append() && path != "-" ? versioned_resume_path(path) : path;
  return write_file(target, chrome_trace_json());
}

bool write_jsonl(const std::string& path) {
  return write_file(path, jsonl(), resume_append());
}

bool write_summary(const std::string& path) {
  return write_file(path, summary_table(), resume_append());
}

namespace {
/// Guards the append-mode flush: with resume_append() set, every call past
/// the first would append a second copy of the same lines (the manual
/// daemon flush, std::atexit, and the terminate handler can all fire in
/// one shutdown). Truncate-mode flushes rewrite the same bytes and stay
/// unguarded — re-running them is how a daemon's final flush overrides an
/// earlier mid-run flush.
std::atomic<bool> g_append_flush_done{false};
}  // namespace

void flush_to_env_paths() {
  if (resume_append() && g_append_flush_done.exchange(true)) return;
  const std::string trace = env_str("REMAPD_TRACE", "");
  if (!trace.empty() && write_chrome_trace(trace))
    log_info("telemetry: wrote Chrome trace to ", trace, " (",
             TraceBuffer::instance().size(), " events)");
  const std::string metrics = env_str("REMAPD_METRICS", "");
  if (!metrics.empty()) {
    const bool as_jsonl =
        metrics.size() >= 6 && metrics.ends_with(".jsonl");
    if (as_jsonl ? write_jsonl(metrics) : write_summary(metrics))
      log_info("telemetry: wrote metrics to ", metrics);
  }
}

namespace {

std::terminate_handler g_prev_terminate = nullptr;

/// std::terminate path (uncaught exception, etc.): flush before chaining to
/// the previous handler, so a crashing run still leaves its trace behind.
[[noreturn]] void terminate_flush() {
  flush_to_env_paths();
  if (g_prev_terminate) g_prev_terminate();
  std::abort();
}

}  // namespace

void init_from_env() {
  static std::once_flag once;
  std::call_once(once, [] {
    const std::string trace = env_str("REMAPD_TRACE", "");
    const std::string metrics = env_str("REMAPD_METRICS", "");
    if (trace.empty() && metrics.empty()) return;
    set_enabled(true);
    std::atexit(flush_to_env_paths);
    g_prev_terminate = std::set_terminate(terminate_flush);
  });
}

void reset_all() {
  TraceBuffer::instance().clear();
  Registry::instance().reset();
  g_append_flush_done.store(false, std::memory_order_relaxed);
}

}  // namespace telemetry
}  // namespace remapd
