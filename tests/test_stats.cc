/** @file Histogram and NodeStats run-total tests. */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/protocol/node_stats.hh"
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

TEST(NodeStats, RunTotalMergesEveryCounterByItsRule)
{
    // operator+= walks nodeCounters, so no counter can be left out of
    // the run total: each one sums, except the four peaks, which take
    // the max.
    NodeStats total;
    NodeStats node;
    for (const NodeCounter &c : nodeCounters) {
        total.*c.field = 3;
        node.*c.field = 5;
    }
    node.backoffHist.sample(2);
    node.missLatencyHist.sample(7);
    total += node;

    std::set<std::string> maxed;
    for (const NodeCounter &c : nodeCounters) {
        EXPECT_EQ(total.*c.field, c.merge == CounterMerge::Max ? 5u : 8u)
            << c.name;
        if (c.merge == CounterMerge::Max)
            maxed.insert(c.name);
    }
    EXPECT_EQ(maxed, (std::set<std::string>{"maxRetriesPerLine",
                                            "nackStormPeak",
                                            "maxLineWaitTicks",
                                            "queueDepthPeak"}));
    EXPECT_EQ(total.backoffHist.bucket(2), 1u);
    EXPECT_EQ(total.missLatencyHist.bucket(7), 1u);
}
