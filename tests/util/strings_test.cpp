#include "util/strings.hpp"

#include <gtest/gtest.h>

namespace sbp::util {
namespace {

TEST(StringsTest, SplitBasic) {
  const auto parts = split("a.b.c", '.');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  const auto parts = split("a..b", '.');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(StringsTest, SplitEmptyInput) {
  const auto parts = split("", '.');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(StringsTest, SplitLeadingTrailingSep) {
  const auto parts = split(".a.", '.');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[1], "a");
  EXPECT_EQ(parts[2], "");
}

TEST(StringsTest, JoinRoundTrip) {
  const auto parts = split("x/y/z", '/');
  EXPECT_EQ(join(parts, "/"), "x/y/z");
}

TEST(StringsTest, JoinEmpty) {
  EXPECT_EQ(join(std::vector<std::string_view>{}, ","), "");
}

TEST(StringsTest, ToLowerAsciiOnly) {
  EXPECT_EQ(to_lower("WwW.GoOgLe.CoM"), "www.google.com");
  EXPECT_EQ(to_lower("already-lower_123"), "already-lower_123");
}

TEST(StringsTest, TrimDefault) {
  EXPECT_EQ(trim("  http://x.com/  "), "http://x.com/");
  EXPECT_EQ(trim("\t\r\n a \n"), "a");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(starts_with("goog-malware-shavar", "goog-"));
  EXPECT_FALSE(starts_with("ydx-phish", "goog-"));
  EXPECT_TRUE(ends_with("goog-malware-shavar", "-shavar"));
  EXPECT_FALSE(ends_with("x", "xx"));
}

TEST(StringsTest, ReplaceAll) {
  EXPECT_EQ(replace_all("%25%25", "%25", "%"), "%%");
  EXPECT_EQ(replace_all("aaa", "aa", "b"), "ba");
  EXPECT_EQ(replace_all("none", "x", "y"), "none");
}

TEST(StringsTest, ParseU64AcceptsOnlyPlainDigits) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("443"), 443u);
  EXPECT_EQ(parse_u64("18446744073709551615"), UINT64_MAX);
  EXPECT_EQ(parse_u64(""), std::nullopt);
  EXPECT_EQ(parse_u64("12a"), std::nullopt);
  EXPECT_EQ(parse_u64("2x"), std::nullopt);
  EXPECT_EQ(parse_u64("-1"), std::nullopt);  // never wraps to 2^64-1
  EXPECT_EQ(parse_u64("+1"), std::nullopt);
  EXPECT_EQ(parse_u64(" 1"), std::nullopt);
  EXPECT_EQ(parse_u64("0x10"), std::nullopt);
  EXPECT_EQ(parse_u64("18446744073709551616"), std::nullopt);  // overflow
}

TEST(StringsTest, ParseU64List) {
  EXPECT_EQ(parse_u64_list("1,2,8"), (std::vector<std::uint64_t>{1, 2, 8}));
  EXPECT_EQ(parse_u64_list("4"), (std::vector<std::uint64_t>{4}));
  EXPECT_EQ(parse_u64_list(""), std::nullopt);
  EXPECT_EQ(parse_u64_list("1,"), std::nullopt);
  EXPECT_EQ(parse_u64_list("1,,2"), std::nullopt);
  EXPECT_EQ(parse_u64_list("1,-1"), std::nullopt);
  EXPECT_EQ(parse_u64_list("1, 2"), std::nullopt);
}

}  // namespace
}  // namespace sbp::util
