#include "obs/jsonl.hpp"

#include <cctype>
#include <cstdlib>

namespace remapd {
namespace obs {

namespace {

struct Cursor {
  explicit Cursor(std::string_view text) : s(text) {}

  std::string_view s;
  std::size_t pos = 0;
  std::string err;

  [[nodiscard]] bool done() const { return pos >= s.size(); }
  [[nodiscard]] char peek() const { return s[pos]; }

  void skip_ws() {
    while (!done() && (s[pos] == ' ' || s[pos] == '\t')) ++pos;
  }

  bool fail(const std::string& what) {
    err = what + " at column " + std::to_string(pos + 1);
    return false;
  }

  bool expect(char c) {
    skip_ws();
    if (done() || s[pos] != c)
      return fail(std::string("expected '") + c + "'");
    ++pos;
    return true;
  }

  bool parse_string(std::string* out) {
    if (!expect('"')) return false;
    out->clear();
    while (true) {
      if (done()) return fail("unterminated string");
      const char c = s[pos++];
      if (c == '"') return true;
      if (c == '\\') {
        if (done()) return fail("dangling escape");
        const char e = s[pos++];
        switch (e) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          case 'r': out->push_back('\r'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'u': {
            // The writer never emits \u escapes; accept and keep the raw
            // code-unit digits so round-trips stay lossless enough.
            if (pos + 4 > s.size()) return fail("truncated \\u escape");
            out->push_back('?');
            pos += 4;
            break;
          }
          default:
            return fail("bad escape");
        }
      } else {
        out->push_back(c);
      }
    }
  }

  bool parse_number(double* out) {
    skip_ws();
    const std::size_t start = pos;
    if (!done() && (s[pos] == '-' || s[pos] == '+')) ++pos;
    bool digits = false;
    auto eat_digits = [&] {
      while (!done() && std::isdigit(static_cast<unsigned char>(s[pos]))) {
        ++pos;
        digits = true;
      }
    };
    eat_digits();
    if (!done() && s[pos] == '.') {
      ++pos;
      eat_digits();
    }
    if (!digits) {
      pos = start;
      return fail("expected number");
    }
    if (!done() && (s[pos] == 'e' || s[pos] == 'E')) {
      ++pos;
      if (!done() && (s[pos] == '-' || s[pos] == '+')) ++pos;
      bool exp_digits = false;
      while (!done() && std::isdigit(static_cast<unsigned char>(s[pos]))) {
        ++pos;
        exp_digits = true;
      }
      if (!exp_digits) return fail("bad exponent");
    }
    const std::string lit(s.substr(start, pos - start));
    *out = std::strtod(lit.c_str(), nullptr);
    return true;
  }

  bool parse_value(JsonValue* out) {
    skip_ws();
    if (done()) return fail("expected value");
    if (peek() == '"') {
      out->kind = JsonValue::Kind::kString;
      return parse_string(&out->str);
    }
    if (peek() == '[') {
      ++pos;
      out->kind = JsonValue::Kind::kArray;
      out->arr.clear();
      skip_ws();
      if (!done() && peek() == ']') {
        ++pos;
        return true;
      }
      while (true) {
        double v = 0.0;
        if (!parse_number(&v)) return false;
        out->arr.push_back(v);
        skip_ws();
        if (done()) return fail("unterminated array");
        if (peek() == ']') {
          ++pos;
          return true;
        }
        if (!expect(',')) return false;
      }
    }
    if (peek() == '{')
      return fail("nested objects are not part of the health stream");
    out->kind = JsonValue::Kind::kNumber;
    return parse_number(&out->num);
  }
};

}  // namespace

bool parse_jsonl_line(std::string_view line, JsonObject* out,
                      std::string* error) {
  Cursor c{line};
  out->clear();
  auto set_error = [&] {
    if (error) *error = c.err;
    return false;
  };

  if (!c.expect('{')) return set_error();
  c.skip_ws();
  if (!c.done() && c.peek() == '}') {
    ++c.pos;
  } else {
    while (true) {
      std::string key;
      if (!c.parse_string(&key)) return set_error();
      if (!c.expect(':')) return set_error();
      JsonValue val;
      if (!c.parse_value(&val)) return set_error();
      (*out)[key] = std::move(val);
      c.skip_ws();
      if (c.done()) {
        c.fail("unterminated object");
        return set_error();
      }
      if (c.peek() == '}') {
        ++c.pos;
        break;
      }
      if (!c.expect(',')) return set_error();
    }
  }
  c.skip_ws();
  if (!c.done()) {
    c.fail("trailing characters after object");
    return set_error();
  }
  return true;
}

double number_or(const JsonObject& obj, const std::string& key,
                 double fallback) {
  const auto it = obj.find(key);
  if (it == obj.end() || !it->second.is_number()) return fallback;
  return it->second.num;
}

std::string string_or(const JsonObject& obj, const std::string& key,
                      const std::string& fallback) {
  const auto it = obj.find(key);
  if (it == obj.end() || !it->second.is_string()) return fallback;
  return it->second.str;
}

}  // namespace obs
}  // namespace remapd
