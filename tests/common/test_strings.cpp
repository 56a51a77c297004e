#include "adaflow/common/strings.hpp"

#include <gtest/gtest.h>

namespace adaflow {
namespace {

TEST(Strings, FormatDouble) {
  EXPECT_EQ(format_double(1.375, 2), "1.38");
  EXPECT_EQ(format_double(2.0, 0), "2");
  EXPECT_EQ(format_double(-0.5, 1), "-0.5");
}

TEST(Strings, FormatRatio) {
  EXPECT_EQ(format_ratio(1.3), "1.30x");
  EXPECT_EQ(format_ratio(2.456, 1), "2.5x");
}

TEST(Strings, FormatPercent) {
  EXPECT_EQ(format_percent(0.272), "27.2%");
  EXPECT_EQ(format_percent(1.0, 0), "100%");
  EXPECT_EQ(format_percent(0.0, 2), "0.00%");
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"only"}, ","), "only");
}

TEST(Strings, Pad) {
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_right("abcdef", 4), "abcdef");
}

}  // namespace
}  // namespace adaflow
