// Exporters for the telemetry registry and trace buffer:
//
//   chrome_trace_json()  chrome://tracing / Perfetto-loadable JSON array of
//                        "ph":"X" (span) and "ph":"i" (instant) events
//   jsonl()              one JSON object per line: every span/instant event,
//                        then a metrics snapshot (counters, gauges,
//                        histograms), each line tagged with a "type" field
//   summary_table()      plain-text table: per-span-name count / total /
//                        p50 / p95 / max, then counters, gauges, histograms
//
// Env wiring (read once at startup by init_from_env):
//   REMAPD_TRACE=<path>    enable collection; write the Chrome trace to
//                          <path> at process exit
//   REMAPD_METRICS=<path>  enable collection; write the metrics to <path>
//                          at exit — JSONL when <path> ends in ".jsonl",
//                          plain-text summary otherwise
#pragma once

#include <string>

namespace remapd {
namespace telemetry {

[[nodiscard]] std::string chrome_trace_json();
[[nodiscard]] std::string jsonl();
[[nodiscard]] std::string summary_table();

/// Write `contents` to `path` ("-" for stdout). Returns success.
bool write_file(const std::string& path, const std::string& contents);
/// Same, but with append=true adds to an existing file instead of
/// replacing it (resumed runs; "-" still streams to stdout).
bool write_file(const std::string& path, const std::string& contents,
                bool append);
bool write_chrome_trace(const std::string& path);
bool write_jsonl(const std::string& path);
bool write_summary(const std::string& path);

/// Read REMAPD_TRACE / REMAPD_METRICS once; if either is set, enable
/// collection and register the exit-time flush. Idempotent and cheap, runs
/// automatically at static-init time of any instrumented binary.
///
/// Flush guarantee: the configured files are written on BOTH exit paths —
/// normal termination (std::atexit) and uncaught-exception termination (a
/// std::set_terminate handler that flushes, then chains to the previously
/// installed handler before aborting). Writes truncate-and-rewrite the
/// same paths, so running both hooks, or calling flush_to_env_paths()
/// manually beforehand, is harmless. Not covered: abnormal termination
/// that bypasses the C++ runtime (std::abort, _exit, fatal signals).
void init_from_env();

/// Write the env-configured outputs now (also what the exit hooks run).
/// Idempotent with live serving: truncate-mode writes rewrite the same
/// bytes on every call, and append-mode writes (resumed runs) land exactly
/// once even when the daemon's final flush, std::atexit, and the terminate
/// handler all fire in one shutdown. Safe to call while a serving thread
/// (obs::HttpServer) is concurrently reading the registry.
void flush_to_env_paths();

/// Resumed-run mode, set when a training run restores a checkpoint: the
/// exit-time flush appends line-oriented outputs (JSONL, summaries, the
/// obs health stream) to whatever the interrupted leg already wrote, and
/// writes the Chrome trace — a JSON array that cannot be appended to — to
/// a fresh versioned sibling path instead of truncating the original.
void set_resume_append(bool on);
[[nodiscard]] bool resume_append();
/// First "<stem>.resumeN<ext>" sibling of `path` (N >= 1) that does not
/// exist yet.
[[nodiscard]] std::string versioned_resume_path(const std::string& path);

/// Clear the trace buffer and zero every registry instrument (tests).
void reset_all();

}  // namespace telemetry
}  // namespace remapd
