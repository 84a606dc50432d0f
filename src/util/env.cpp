#include "util/env.hpp"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

namespace remapd {

namespace {

[[noreturn]] void bad_value(const std::string& what, const char* text,
                            const std::string& expected) {
  throw std::runtime_error(what + ": cannot parse '" + text + "' (" +
                           expected + ")");
}

bool is_digit(char c) { return c >= '0' && c <= '9'; }

}  // namespace

std::uint64_t parse_uint(const std::string& what, const char* text,
                         std::uint64_t max) {
  // strtoull alone would skip whitespace and wrap "-5" to 2^64 - 5.
  if (!is_digit(text[0]))
    bad_value(what, text, "expected a non-negative integer");
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno == ERANGE)
    bad_value(what, text, "expected a non-negative integer");
  if (parsed > max)
    bad_value(what, text, "must be at most " + std::to_string(max));
  return parsed;
}

double parse_nonneg(const std::string& what, const char* text) {
  // Plain decimal/exponent notation only: no sign, whitespace, hex, inf or
  // nan, all of which strtod would otherwise accept.
  if (!(is_digit(text[0]) || text[0] == '.') ||
      text[std::strspn(text, "0123456789.eE+-")] != '\0')
    bad_value(what, text, "expected a non-negative number");
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(text, &end);
  if (*end != '\0' || errno == ERANGE)
    bad_value(what, text, "expected a non-negative number");
  return parsed;
}

std::size_t env_size(const std::string& name, std::size_t def) {
  const char* v = std::getenv(name.c_str());
  return v ? static_cast<std::size_t>(parse_uint(
                 name, v, std::numeric_limits<std::size_t>::max()))
           : def;
}

std::string env_str(const std::string& name, const std::string& def) {
  const char* v = std::getenv(name.c_str());
  return v ? std::string(v) : def;
}

}  // namespace remapd
