// Environment-variable configuration knobs. The paper trains full-size CNNs
// for 50 epochs on a GPU; our CPU reproduction runs scaled variants whose
// size can be tuned without recompiling. This is the complete list of the
// REMAPD_* variables the code reads; model constants (weight full scale,
// gradient pin, policy strengths, scenario physics) are compiled in.
//
//   REMAPD_THREADS  worker threads for the deterministic parallel layer
//                   (unset → hardware concurrency; 0 or 1 → serial fast
//                   path). Results are bitwise identical at any setting —
//                   see util/parallel.hpp for the contract
//   REMAPD_EPOCHS   override training epochs of the flagless benches
//                   (default per-bench; remapd_experiment takes --epochs)
//   REMAPD_TRAIN    override number of training samples (benches only)
//   REMAPD_TEST     override number of test samples (benches only)
//   REMAPD_LOG      log level (debug|info|warn|error, case-insensitive;
//                   unrecognized values warn once and fall back to info)
//   REMAPD_TRACE    enable telemetry; write a chrome://tracing JSON to this
//                   path at process exit (see telemetry/)
//   REMAPD_METRICS  enable telemetry; write metrics to this path at exit —
//                   JSONL if it ends in ".jsonl", plain-text summary
//                   otherwise ("-" for stdout)
//   REMAPD_HEALTH   enable the reliability observatory; write the health
//                   JSONL stream to this path (and a human-readable
//                   summary to <path>.summary.txt) at exit — see src/obs/
//                   and tools/remapd_report.cpp
//
// Parsing is strict: a REMAPD_* variable that is set but malformed (empty,
// sign, trailing garbage, out of range) throws std::runtime_error naming the
// variable and the offending value — a typo'd override must never be
// silently ignored, truncated, or fall back to the default. Command-line
// flags go through the same parsers (parse_uint / parse_nonneg).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>

namespace remapd {

/// Whole-string decimal integer in [0, max]: digits only, no sign, no
/// whitespace. Throws std::runtime_error "<what>: cannot parse '<text>'
/// (...)" otherwise; `what` names the source (env var or CLI flag).
std::uint64_t parse_uint(
    const std::string& what, const char* text,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/// Whole-string finite non-negative decimal number (e.g. "0.5", "1e-3").
/// Same error contract as parse_uint.
double parse_nonneg(const std::string& what, const char* text);

/// Non-negative integer env var with default, parsed by parse_uint.
std::size_t env_size(const std::string& name, std::size_t def);

/// String env var with default.
std::string env_str(const std::string& name, const std::string& def);

}  // namespace remapd
