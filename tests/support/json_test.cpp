// The one JSON string escaper (support/json.hpp).
#include "support/json.hpp"

#include <gtest/gtest.h>

#include <string>

namespace rader {
namespace {

TEST(Json, ControlCharactersBecomeFourDigitEscapes) {
  EXPECT_EQ(json_escaped(std::string("a\x01" "b")), "a\\u0001b");
  EXPECT_EQ(json_escaped("left\rwrite"), "left\\u000dwrite");
  EXPECT_EQ(json_escaped("x\x1f" "y"), "x\\u001fy");
  EXPECT_EQ(json_escaped(std::string(1, '\0')), "\\u0000");
}

TEST(Json, QuotesBackslashesNewlinesAndTabsUseShortEscapes) {
  EXPECT_EQ(json_escaped("say \"hi\"\\\n\t"), "say \\\"hi\\\"\\\\\\n\\t");
  EXPECT_EQ(json_quoted("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(json_escaped("plain ascii, \x7f and \xc3\xa9"),
            "plain ascii, \x7f and \xc3\xa9");
}

}  // namespace
}  // namespace rader
