/** @file Histogram tests. */

#include <gtest/gtest.h>

#include "src/sim/stats.hh"

using namespace pcsim;

TEST(Histogram, BucketsAndFractions)
{
    Histogram h(4);
    h.sample(0);
    h.sample(1);
    h.sample(1);
    h.sample(2);
    EXPECT_EQ(h.total(), 4u);
    EXPECT_EQ(h.bucket(1), 2u);
    EXPECT_DOUBLE_EQ(h.fraction(1), 0.5);
    EXPECT_DOUBLE_EQ(h.fraction(3), 0.0);
}

TEST(Histogram, OverflowLandsInLastBucket)
{
    Histogram h(4);
    h.sample(100);
    h.sample(3);
    EXPECT_EQ(h.bucket(3), 2u);
}

TEST(Histogram, Reset)
{
    Histogram h(4);
    h.sample(2);
    h.reset();
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.bucket(2), 0u);
}
