// Line reader for the observatory's health stream (obs/report.hpp): its
// flat-object contract on top of json::parse. The first violation is an
// error, so `remapd_report` (and the CI smoke step) fail loudly on a
// truncated or corrupted stream instead of skipping lines.
#pragma once

#include <string>
#include <string_view>

#include "util/json.hpp"

namespace remapd {
namespace obs {

/// Parse one line: a JSON object whose values are strings, numbers or
/// arrays of numbers. Returns false (and sets `*error` when non-null) on a
/// syntax error, a non-object line or any other value kind. Blank lines
/// are rejected; callers skip them.
bool parse_jsonl_line(std::string_view line, json::Value* out,
                      std::string* error = nullptr);

}  // namespace obs
}  // namespace remapd
