#include "util/strings.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

namespace provmark::util {
namespace {

TEST(Split, KeepsEmptyFields) {
  EXPECT_EQ(split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split("nodelim", ','), (std::vector<std::string>{"nodelim"}));
}

TEST(SplitNonempty, TrimsAndDrops) {
  EXPECT_EQ(split_nonempty(" a , ,b ", ','),
            (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(split_nonempty("  ,  ", ',').empty());
}

TEST(Trim, Whitespace) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("\t\r\nx\n"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(StartsEndsWith, Basics) {
  EXPECT_TRUE(starts_with("digraph g", "digraph"));
  EXPECT_FALSE(starts_with("di", "digraph"));
  EXPECT_TRUE(ends_with("file.json", ".json"));
  EXPECT_FALSE(ends_with("json", ".json"));
}

TEST(Join, Basics) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(ReplaceAll, Basics) {
  EXPECT_EQ(replace_all("aXbXc", "X", "--"), "a--b--c");
  EXPECT_EQ(replace_all("aaa", "aa", "b"), "ba");  // non-overlapping
  EXPECT_EQ(replace_all("abc", "", "x"), "abc");   // empty needle is no-op
}

TEST(Format, Printf) {
  EXPECT_EQ(format("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(format("%.2f", 1.5), "1.50");
  EXPECT_EQ(format("empty"), "empty");
}

TEST(ParseCount, AcceptsExactlyDigitsWithinRange) {
  // The one parser behind every numeric command-line value: whole
  // decimal numbers in [min, max]; everything else throws, naming the
  // option and the range.
  constexpr std::uint64_t kU64 = std::numeric_limits<std::uint64_t>::max();
  struct Case {
    const char* text;
    std::uint64_t min, max;
    std::optional<std::uint64_t> want;  // nullopt = rejected
  };
  const Case cases[] = {
      {"0", 0, kU64, 0},
      {"42", 0, kU64, 42},
      {"007", 0, kU64, 7},
      {"18446744073709551615", 0, kU64, kU64},
      {"18446744073709551616", 0, kU64, std::nullopt},  // 2^64
      {"99999999999999999999999", 0, kU64, std::nullopt},
      {"-1", 0, kU64, std::nullopt},  // not 2^64-1
      {"7abc", 0, kU64, std::nullopt},  // not 7
      {"+7", 0, kU64, std::nullopt},
      {" 7", 0, kU64, std::nullopt},
      {"7 ", 0, kU64, std::nullopt},
      {"1e3", 0, kU64, std::nullopt},
      {"4.0", 0, kU64, std::nullopt},
      {"0x10", 0, kU64, std::nullopt},
      {"", 0, kU64, std::nullopt},
      {"0", 1, 256, std::nullopt},  // below min
      {"1", 1, 256, 1},
      {"256", 1, 256, 256},
      {"257", 1, 256, std::nullopt},  // above max
      {"2147483647", 0, 2147483647, 2147483647},
      {"2147483648", 0, 2147483647, std::nullopt},
      {"5", 0, 0, std::nullopt},  // a digit already past max
  };
  for (const Case& c : cases) {
    const std::string where = std::string("'") + c.text + "' in " +
                              std::to_string(c.min) + ".." +
                              std::to_string(c.max);
    if (c.want.has_value()) {
      EXPECT_EQ(parse_count(c.text, "--flag", c.min, c.max), *c.want)
          << where;
      continue;
    }
    try {
      parse_count(c.text, "--flag", c.min, c.max);
      ADD_FAILURE() << "accepted " << where;
    } catch (const std::invalid_argument& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("--flag"), std::string::npos) << message;
      EXPECT_NE(message.find(std::to_string(c.max)), std::string::npos)
          << message;
    }
  }
}

}  // namespace
}  // namespace provmark::util
