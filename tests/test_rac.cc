/** @file Remote Access Cache unit tests (Section 2.1 roles). */

#include <gtest/gtest.h>

#include <vector>

#include "src/core/rac.hh"

using namespace pcsim;

namespace
{

Rac
makeRac(std::size_t bytes = 4 * 128, std::size_t ways = 2)
{
    RacConfig cfg;
    cfg.sizeBytes = bytes;
    cfg.ways = ways;
    return Rac(cfg, /*line_bytes=*/128, Rng(1));
}

} // namespace

TEST(Rac, InsertAndFind)
{
    Rac r = makeRac();
    EXPECT_EQ(r.find(0x1000), nullptr);
    EXPECT_TRUE(r.insert(0x1000, 7));
    RacEntry *e = r.find(0x1000);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->version, 7u);
    EXPECT_FALSE(e->pinned);
}

TEST(Rac, InsertEvictsUnpinned)
{
    Rac r = makeRac(2 * 128, 2); // one set, two ways
    EXPECT_TRUE(r.insert(0 * 128, 1));
    EXPECT_TRUE(r.insert(1 * 128, 2));
    EXPECT_TRUE(r.insert(2 * 128, 3)); // displaces one
    EXPECT_EQ(r.occupancy(), 2u);
}

TEST(Rac, InsertNeverDisplacesPinned)
{
    Rac r = makeRac(2 * 128, 2);
    ASSERT_NE(r.insertPinned(0 * 128, 1, nullptr), nullptr);
    ASSERT_NE(r.insertPinned(1 * 128, 2, nullptr), nullptr);
    EXPECT_FALSE(r.insert(2 * 128, 3)); // set wholly pinned: dropped
    EXPECT_NE(r.find(0), nullptr);
    EXPECT_NE(r.find(128), nullptr);
}

TEST(Rac, PinnedInsertEvictsUnpinnedFirst)
{
    Rac r = makeRac(2 * 128, 2);
    r.insert(0 * 128, 1);
    r.insert(1 * 128, 2);
    RacEntry *e = r.insertPinned(2 * 128, 3, nullptr);
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->pinned);
}

TEST(Rac, PinnedPressureInvokesUndelegationCallback)
{
    Rac r = makeRac(2 * 128, 2);
    r.insertPinned(0 * 128, 1, nullptr);
    r.insertPinned(1 * 128, 2, nullptr);
    std::vector<Addr> evicted;
    RacEntry *e = r.insertPinned(2 * 128, 3, [&](Addr victim) {
        evicted.push_back(victim);
        r.unpin(victim, /*keep_data=*/false); // what undelegate does
    });
    ASSERT_NE(e, nullptr);
    ASSERT_EQ(evicted.size(), 1u);
    EXPECT_EQ(r.find(2 * 128)->version, 3u);
}

TEST(Rac, PinnedPressurePicksFirstPinnedWayOfTheSet)
{
    Rac r = makeRac(4 * 128, 2); // two sets, two ways
    // A pinned line in set 0 comes first in whole-array order; it must
    // never be offered for a set-1 conflict.
    ASSERT_NE(r.insertPinned(0 * 128, 1, nullptr), nullptr);
    // Set 1: way 0 = line 1, way 1 = line 3, both pinned.
    ASSERT_NE(r.insertPinned(1 * 128, 2, nullptr), nullptr);
    ASSERT_NE(r.insertPinned(3 * 128, 3, nullptr), nullptr);
    // Touch line 1 so line 3 is the set's LRU entry: the victim is
    // still way 0 (recency is not consulted).
    r.find(1 * 128);
    std::vector<Addr> evicted;
    RacEntry *e = r.insertPinned(5 * 128, 4, [&](Addr victim) {
        evicted.push_back(victim);
        r.unpin(victim, /*keep_data=*/false);
    });
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(evicted, (std::vector<Addr>{1 * 128}));
    EXPECT_NE(r.find(0 * 128), nullptr);
    EXPECT_NE(r.find(3 * 128), nullptr);
    EXPECT_EQ(r.find(5 * 128)->version, 4u);
}

TEST(Rac, UpdatePinnedRefreshesData)
{
    Rac r = makeRac();
    r.insertPinned(0x1000, 5, nullptr);
    r.updatePinned(0x1000, 9);
    EXPECT_EQ(r.find(0x1000)->version, 9u);
    // updatePinned on an unpinned entry is a no-op.
    r.insert(0x2000, 1);
    r.updatePinned(0x2000, 9);
    EXPECT_EQ(r.find(0x2000)->version, 1u);
}

TEST(Rac, UnpinKeepData)
{
    Rac r = makeRac();
    r.insertPinned(0x1000, 5, nullptr);
    r.unpin(0x1000, /*keep_data=*/true);
    RacEntry *e = r.find(0x1000);
    ASSERT_NE(e, nullptr);
    EXPECT_FALSE(e->pinned);
}

TEST(Rac, UnpinDropData)
{
    Rac r = makeRac();
    r.insertPinned(0x1000, 5, nullptr);
    r.unpin(0x1000, /*keep_data=*/false);
    EXPECT_EQ(r.find(0x1000), nullptr);
}

TEST(Rac, InvalidateRemovesEntry)
{
    Rac r = makeRac();
    r.insert(0x1000, 5);
    EXPECT_TRUE(r.invalidate(0x1000));
    EXPECT_EQ(r.find(0x1000), nullptr);
    EXPECT_FALSE(r.invalidate(0x1000));
}

TEST(Rac, CapacityBytesMatchesConfig)
{
    Rac r = makeRac(32 * 1024, 4);
    EXPECT_EQ(r.capacityBytes(), 32u * 1024);
}

TEST(Rac, FromUpdateFlagRoundTrip)
{
    Rac r = makeRac();
    r.insert(0x1000, 5);
    r.find(0x1000)->fromUpdate = true;
    EXPECT_TRUE(r.find(0x1000)->fromUpdate);
}
