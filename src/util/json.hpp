// The one JSON implementation in the tree: a strict RFC 8259 reader plus the
// string escaping and `%.6g` number format every ostream emitter shares.
//
// The reader rejects anything RFC 8259 does not define (leading '+' or
// zeros, '.5', '1.', trailing commas, unknown escapes, raw control
// characters in strings, lone UTF-16 surrogates, trailing content), and
// every error names its line and column. Nesting deeper than kMaxDepth is
// an error, not a stack overflow. String bytes >= 0x80 pass through
// unvalidated, so parse() inverts escape() on any byte string.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace remapd {
namespace json {

inline constexpr int kMaxDepth = 64;

struct Member;

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  /// Decoded string, or a number's literal text (exact past 2^53).
  std::string str;
  std::vector<Value> items;     ///< array elements
  std::vector<Member> members;  ///< object members, in document order
  std::size_t line = 0;         ///< 1-based line the value starts on

  [[nodiscard]] bool is(Kind k) const { return kind == k; }
  /// First member named `key`; nullptr if absent or not an object.
  [[nodiscard]] const Value* find(std::string_view key) const;
  /// The member's number/string, or `fallback` if absent or another kind.
  [[nodiscard]] double num(std::string_view key, double fallback = 0) const;
  [[nodiscard]] std::string text(std::string_view key,
                                 std::string_view fallback = "") const;
};

struct Member {
  std::string key;
  std::size_t line = 0;  ///< 1-based line of the key
  Value value;
};

/// Parse one complete document. On failure returns false and sets `*error`
/// (when non-null) to "<what> at line L column C".
bool parse(std::string_view text, Value* out, std::string* error = nullptr);

/// '"', '\\', \n, \r, \t get short escapes, other bytes < 0x20 \u00XX.
[[nodiscard]] std::string escape(std::string_view s);

/// `%.6g`.
[[nodiscard]] std::string number(double v);

}  // namespace json
}  // namespace remapd
