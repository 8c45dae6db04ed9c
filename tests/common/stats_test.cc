#include <gtest/gtest.h>

#include <limits>

#include "common/stats.hh"

using namespace tcpni;
using namespace tcpni::stats;

TEST(JsonEscape, SpecialCharacters)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb"), "a\\nb");
}

TEST(JsonNum, FormatsFiniteAndCollapsesNonFinite)
{
    EXPECT_EQ(jsonNum(3), "3");
    EXPECT_EQ(jsonNum(0.5), "0.5");
    EXPECT_EQ(jsonNum(1.0 / 3), "0.3333333333");
    EXPECT_EQ(jsonNum(std::numeric_limits<double>::infinity()), "0");
    EXPECT_EQ(jsonNum(std::numeric_limits<double>::quiet_NaN()), "0");
}
