#include "obs/jsonl.hpp"

#include <algorithm>

namespace remapd {
namespace obs {

namespace {

using Kind = json::Value::Kind;

bool is_flat(const json::Value& v) {
  const auto number = [](const json::Value& x) { return x.is(Kind::kNumber); };
  return v.is(Kind::kString) || number(v) ||
         (v.is(Kind::kArray) &&
          std::all_of(v.items.begin(), v.items.end(), number));
}

}  // namespace

bool parse_jsonl_line(std::string_view line, json::Value* out,
                      std::string* error) {
  if (!json::parse(line, out, error)) return false;
  std::string why = out->is(Kind::kObject) ? "" : "line is not a JSON object";
  for (const json::Member& m : out->members)
    if (why.empty() && !is_flat(m.value))
      why = "value of '" + m.key +
            "' is not a string, number or array of numbers";
  if (error && !why.empty()) *error = why;
  return why.empty();
}

}  // namespace obs
}  // namespace remapd
