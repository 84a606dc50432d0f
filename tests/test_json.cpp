// The shared JSON reader (util/json): RFC 8259 strictness, escape round
// trips, the nesting bound and line tracking. The prefix property over the
// tree's writers (json_prefix.hpp) runs next to each writer's own test.
#include <gtest/gtest.h>

#include <regex>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace remapd {
namespace {

using json::Value;
using Kind = json::Value::Kind;

TEST(Json, ParsesEveryKindAndRecordsLines) {
  Value v;
  std::string err;
  ASSERT_TRUE(json::parse("{\"n\": null, \"t\": true, \"f\": false,\n"
                          " \"num\": -12.5e1, \"s\": \"x\",\n"
                          " \"a\": [1,\n  {\"k\": 9007199254740993}]}",
                          &v, &err))
      << err;
  ASSERT_EQ(v.members.size(), 6u);
  EXPECT_TRUE(v.find("n")->is(Kind::kNull));
  EXPECT_TRUE(v.find("t")->is(Kind::kBool) && v.find("t")->boolean);
  EXPECT_TRUE(v.find("f")->is(Kind::kBool) && !v.find("f")->boolean);
  EXPECT_EQ(v.num("num"), -125.0);
  EXPECT_EQ(v.find("num")->str, "-12.5e1");
  EXPECT_EQ(v.text("s"), "x");
  EXPECT_EQ(v.num("s", 7.0), 7.0);  // wrong kind -> fallback

  // Members record their key's line, values the line they start on.
  EXPECT_EQ(v.members[3].line, 2u);
  const Value& a = *v.find("a");
  EXPECT_EQ(a.line, 3u);
  ASSERT_EQ(a.items.size(), 2u);
  EXPECT_EQ(a.items[1].line, 4u);
  EXPECT_EQ(a.items[1].members[0].line, 4u);
  // A number keeps its literal, so integers past 2^53 stay exact.
  EXPECT_EQ(a.items[1].find("k")->str, "9007199254740993");
}

TEST(Json, AcceptsEveryRfcEscape) {
  Value v;
  std::string err;
  const std::string text =
      R"("\"\\\/\b\f\n\r\t\u0041\u00e9\u20AC\ud83d\ude00")";
  ASSERT_TRUE(json::parse(text, &v, &err)) << err;
  EXPECT_EQ(v.str,
            "\"\\/\b\f\n\r\tA\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80");
}

TEST(Json, EscapeRoundTripsEveryByte) {
  for (int b = 0; b < 256; ++b) {
    const std::string s = std::string("a") + static_cast<char>(b) + "b";
    Value v;
    std::string err;
    ASSERT_TRUE(json::parse("\"" + json::escape(s) + "\"", &v, &err))
        << "byte " << b << ": " << err;
    EXPECT_EQ(v.str, s) << "byte " << b;
  }
}

TEST(Json, RejectsHostileInputNamingLineAndColumn) {
  const std::vector<std::string> bad = {
      std::string(2'000'000, '['),  // would overflow a recursive reader
      std::string(json::kMaxDepth + 1, '[') +
          std::string(json::kMaxDepth + 1, ']'),
      R"({"a":1-2-3})", R"({"a":+})", R"("\q")", "+1", ".5", "1.",
      "1e", "-", "[1,]", "[1 2]", "01", "tru", "nul", "\"abc",
      "\"a\x01\"", "\"a\nb\"",  // raw control characters
      R"("\ud800")", R"("\udc00")", R"("\ud800A")",  // lone surrogates
      R"("\u12")", R"({"a" 1})", R"({1:2})", R"({"a":1,})", "{} {}", "",
      "  \n ",
  };
  const std::regex where(" at line [0-9]+ column [0-9]+$");
  for (const std::string& text : bad) {
    Value v;
    std::string err;
    EXPECT_FALSE(json::parse(text, &v, &err)) << text.substr(0, 40);
    EXPECT_TRUE(std::regex_search(err, where))
        << text.substr(0, 40) << " -> " << err;
  }

  Value v;
  std::string err;
  EXPECT_FALSE(json::parse("[1,\n 2,]", &v, &err));
  EXPECT_EQ(err, "trailing comma at line 2 column 4");
}

TEST(Json, AcceptsNestingAtMaxDepth) {
  Value v;
  std::string err;
  const std::string arrays = std::string(json::kMaxDepth, '[') +
                             std::string(json::kMaxDepth, ']');
  EXPECT_TRUE(json::parse(arrays, &v, &err)) << err;
  std::string objects = "0";
  for (int i = 0; i < json::kMaxDepth; ++i)
    objects = "{\"k\":" + objects + "}";
  EXPECT_TRUE(json::parse(objects, &v, &err)) << err;
  EXPECT_FALSE(json::parse("[" + objects + "]", &v, &err));
}

TEST(Json, NumberIsPercent6g) {
  EXPECT_EQ(json::number(0.1), "0.1");
  EXPECT_EQ(json::number(3), "3");
  EXPECT_EQ(json::number(1e-7), "1e-07");
  EXPECT_EQ(json::number(123456789), "1.23457e+08");
}

}  // namespace
}  // namespace remapd
