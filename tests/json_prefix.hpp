// The prefix property of the JSON writer tests.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "util/json.hpp"

namespace remapd {

/// The whole document parses; every strict prefix up to its last
/// non-whitespace byte is rejected. Each prefix is a view into `doc`, so a
/// read past its end would see the rest of the real document.
inline void expect_only_whole_parses(const std::string& what,
                                     std::string_view doc) {
  json::Value v;
  std::string err;
  ASSERT_TRUE(json::parse(doc, &v, &err)) << what << ": " << err;
  for (std::size_t n = 0; n <= doc.find_last_not_of(" \t\r\n"); ++n)
    if (json::parse(doc.substr(0, n), &v)) {
      ADD_FAILURE() << what << ": accepted a " << n << "-byte prefix";
      return;
    }
}

}  // namespace remapd
