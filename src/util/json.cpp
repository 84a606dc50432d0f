#include "util/json.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace remapd {
namespace json {

namespace {

bool is_digit(char c) { return c >= '0' && c <= '9'; }

void append_utf8(std::string* out, unsigned cp) {
  static constexpr unsigned kLead[] = {0x00, 0xC0, 0xE0, 0xF0};
  const int tail = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
  out->push_back(static_cast<char>(kLead[tail] | (cp >> (6 * tail))));
  for (int i = tail - 1; i >= 0; --i)
    out->push_back(static_cast<char>(0x80 | ((cp >> (6 * i)) & 0x3F)));
}

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  bool document(Value* out) {
    skip_ws();
    if (!value(out, 0)) return false;
    skip_ws();
    return done() || fail("trailing characters");
  }

  std::string error;

 private:
  [[nodiscard]] bool done() const { return pos_ >= s_.size(); }
  [[nodiscard]] bool at(char c) const { return !done() && s_[pos_] == c; }

  bool fail(const std::string& what) {
    error = what + " at line " + std::to_string(line_) + " column " +
            std::to_string(pos_ - line_start_ + 1);
    return false;
  }

  void skip_ws() {
    for (; !done(); ++pos_) {
      if (s_[pos_] == '\n') {
        ++line_;
        line_start_ = pos_ + 1;
      } else if (s_[pos_] != ' ' && s_[pos_] != '\t' && s_[pos_] != '\r') {
        return;
      }
    }
  }

  /// `depth` counts the containers enclosing this value.
  bool value(Value* out, int depth) {
    out->line = line_;
    if (done()) return fail("unexpected end of input");
    switch (s_[pos_]) {
      case '{':
      case '[':
        if (depth >= kMaxDepth)
          return fail("nesting deeper than " + std::to_string(kMaxDepth));
        return container(out, depth);
      case '"': out->kind = Value::Kind::kString; return string(&out->str);
      case 't': out->boolean = true; return literal(out, "true");
      case 'f': return literal(out, "false");
      case 'n': return literal(out, "null");
      default: return number(out);
    }
  }

  bool literal(Value* out, std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return fail("invalid literal");
    out->kind = word == "null" ? Value::Kind::kNull : Value::Kind::kBool;
    pos_ += word.size();
    return true;
  }

  /// An object or an array: one comma-separated loop, where each object
  /// element carries a `"key":` prefix.
  bool container(Value* out, int depth) {
    const bool object = s_[pos_++] == '{';
    const char close = object ? '}' : ']';
    out->kind = object ? Value::Kind::kObject : Value::Kind::kArray;
    for (skip_ws(); !at(close);) {
      Value* element = nullptr;
      if (object) {
        if (!at('"')) return fail("expected string key");
        Member& m = out->members.emplace_back();
        m.line = line_;
        if (!string(&m.key)) return false;
        skip_ws();
        if (!at(':')) return fail("expected ':'");
        ++pos_;
        skip_ws();
        element = &m.value;
      } else {
        element = &out->items.emplace_back();
      }
      if (!value(element, depth + 1)) return false;
      skip_ws();
      if (at(close)) break;
      if (!at(',')) return fail(std::string("expected ',' or '") + close + "'");
      ++pos_;
      skip_ws();
      if (at(close)) return fail("trailing comma");
    }
    ++pos_;
    return true;
  }

  bool digits() {
    if (done() || !is_digit(s_[pos_])) return false;
    while (!done() && is_digit(s_[pos_])) ++pos_;
    return true;
  }

  /// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  bool number(Value* out) {
    const std::size_t start = pos_;
    if (at('-')) ++pos_;
    if (at('0')) {
      ++pos_;
    } else if (!digits()) {
      return fail(pos_ == start ? "expected value" : "expected digit");
    }
    if (at('.')) {
      ++pos_;
      if (!digits()) return fail("expected digit");
    }
    if (at('e') || at('E')) {
      ++pos_;
      if (at('+') || at('-')) ++pos_;
      if (!digits()) return fail("expected digit");
    }
    out->kind = Value::Kind::kNumber;
    out->str = s_.substr(start, pos_ - start);
    out->number = std::strtod(out->str.c_str(), nullptr);
    return true;
  }

  bool hex4(unsigned* cp) {
    const char* p = s_.data() + pos_;
    if (s_.size() - pos_ < 4 || std::from_chars(p, p + 4, *cp, 16).ptr != p + 4)
      return fail("invalid \\u escape");
    pos_ += 4;
    return true;
  }

  /// The code point after "\u"; a high surrogate must be followed by an
  /// escaped low one.
  bool unicode(std::string* out) {
    unsigned cp = 0, lo = 0;
    if (!hex4(&cp)) return false;
    if (cp >= 0xDC00 && cp <= 0xDFFF) return fail("lone low surrogate");
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      if (s_.substr(pos_, 2) != "\\u") return fail("lone high surrogate");
      pos_ += 2;
      if (!hex4(&lo)) return false;
      if (lo < 0xDC00 || lo > 0xDFFF) return fail("lone high surrogate");
      cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
    }
    append_utf8(out, cp);
    return true;
  }

  bool string(std::string* out) {
    static constexpr std::string_view kEscapes = "\"\\/bfnrt";
    static constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";
    for (++pos_; !at('"');) {
      if (done()) return fail("unterminated string");
      const char c = s_[pos_];
      if (static_cast<unsigned char>(c) < 0x20)
        return fail("control character in string");
      ++pos_;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (done()) return fail("unterminated string");
      if (at('u')) {
        ++pos_;
        if (!unicode(out)) return false;
        continue;
      }
      const std::size_t e = kEscapes.find(s_[pos_]);
      if (e == std::string_view::npos) return fail("invalid escape");
      out->push_back(kDecoded[e]);
      ++pos_;
    }
    ++pos_;
    return true;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
  std::size_t line_start_ = 0;
};

}  // namespace

const Value* Value::find(std::string_view key) const {
  for (const Member& m : members)
    if (m.key == key) return &m.value;
  return nullptr;
}

double Value::num(std::string_view key, double fallback) const {
  const Value* v = find(key);
  return v && v->is(Kind::kNumber) ? v->number : fallback;
}

std::string Value::text(std::string_view key, std::string_view fallback) const {
  const Value* v = find(key);
  return std::string(v && v->is(Kind::kString) ? v->str : fallback);
}

bool parse(std::string_view text, Value* out, std::string* error) {
  *out = Value{};
  Parser p(text);
  if (p.document(out)) return true;
  if (error) *error = p.error;
  return false;
}

std::string escape(std::string_view s) {
  static constexpr std::string_view kRaw = "\"\\\n\r\t";
  static constexpr std::string_view kShort = "\"\\nrt";
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (const std::size_t i = kRaw.find(c); i != std::string_view::npos) {
      out += '\\';
      out += kShort[i];
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace json
}  // namespace remapd
