/** @file Tests for the named counter. */
#include <gtest/gtest.h>

#include "common/stats.h"

namespace smartinf {
namespace {

TEST(Counter, AccumulatesAndResets)
{
    Counter c("bytes");
    EXPECT_EQ(c.value(), 0.0);
    c.add(10.0);
    c.add(2.5);
    c.increment();
    EXPECT_DOUBLE_EQ(c.value(), 13.5);
    EXPECT_EQ(c.name(), "bytes");
    c.reset();
    EXPECT_EQ(c.value(), 0.0);
}

} // namespace
} // namespace smartinf
