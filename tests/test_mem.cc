/** @file DRAM, memory map and directory structure tests. */

#include <gtest/gtest.h>

#include "src/mem/directory.hh"
#include "src/mem/dram.hh"
#include "src/mem/memory_map.hh"

using namespace pcsim;

TEST(Dram, FixedLatency)
{
    DramModel d;
    EXPECT_EQ(d.access(1000), 1200u);
    EXPECT_EQ(d.numAccesses(), 1u);
}

TEST(Dram, ChannelsAbsorbParallelAccesses)
{
    DramModel d; // 4 channels
    // Four accesses at the same tick all start immediately.
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(d.access(0), 200u);
    // The fifth queues behind a busy channel.
    EXPECT_EQ(d.access(0), 232u);
}

TEST(Dram, ChannelFreesOverTime)
{
    DramConfig cfg;
    cfg.channels = 1;
    DramModel d(cfg);
    EXPECT_EQ(d.access(0), 200u);
    EXPECT_EQ(d.access(0), 232u);  // queued 32 cycles
    EXPECT_EQ(d.access(100), 300u); // channel free by then
}

TEST(MemoryMap, FirstTouchAssignsToucher)
{
    MemoryMap m(16);
    EXPECT_EQ(m.homeOf(0x1000, /*toucher=*/5), 5);
    // Later touches do not re-place the page.
    EXPECT_EQ(m.homeOf(0x1000, 9), 5);
    EXPECT_EQ(m.homeOf(0x2000, 9), 5); // same 16 KB page
    EXPECT_EQ(m.homeOf(0x4000, 9), 9); // next page
}

TEST(MemoryMap, ConstLookupRequiresPlacement)
{
    MemoryMap m(16);
    m.homeOf(0x1000, 3);
    const MemoryMap &cm = m;
    EXPECT_EQ(cm.homeOf(0x1000), 3);
}

TEST(DirEntry, SharerBitVector)
{
    DirEntry d;
    d.addSharer(3);
    d.addSharer(7);
    EXPECT_TRUE(d.isSharer(3));
    EXPECT_FALSE(d.isSharer(4));
    EXPECT_EQ(d.numSharers(), 2u);
    d.removeSharer(3);
    EXPECT_FALSE(d.isSharer(3));
    EXPECT_EQ(d.numSharers(), 1u);
}

TEST(DirectoryStore, CreatesUnownedOnFirstTouch)
{
    DirectoryStore s;
    DirEntry &e = s.lookup(0x1000);
    EXPECT_EQ(e.state, DirState::Unowned);
    e.state = DirState::Excl;
    e.owner = 4;
    EXPECT_EQ(s.lookup(0x1000).owner, 4);
    EXPECT_EQ(s.find(0x2000), nullptr);
}

namespace
{

DirectoryCacheConfig
smallDirCache()
{
    DirectoryCacheConfig cfg;
    cfg.entries = 8;
    cfg.ways = 2;
    return cfg;
}

} // namespace

TEST(DirectoryCache, MissFillsFromStore)
{
    DirectoryStore store;
    store.lookup(0x1000).state = DirState::Shared;
    store.lookup(0x1000).addSharer(0);
    store.lookup(0x1000).addSharer(2);

    DirectoryCache dc(smallDirCache(), 128, store, Rng(1));
    bool miss;
    DirCacheEntry *e = dc.access(0x1000, miss);
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(miss);
    EXPECT_EQ(e->dir.state, DirState::Shared);
    EXPECT_EQ(e->dir.sharers.toString(), "0x5");

    dc.access(0x1000, miss);
    EXPECT_FALSE(miss);
}

TEST(DirectoryCache, EvictionPersistsProtocolStateDropsDetector)
{
    DirectoryStore store;
    DirectoryCache dc(smallDirCache(), 128, store, Rng(1));

    bool miss;
    DirCacheEntry *e = dc.access(0x1000, miss);
    e->dir.state = DirState::Excl;
    e->dir.owner = 6;
    e->detector.onWrite(6);

    // Force the entry out of its 2-way set (8 entries / 2 ways = 4
    // sets; lines 4 sets apart collide).
    const Addr stride = 4 * 128;
    dc.access(0x1000 + stride, miss);
    dc.access(0x1000 + 2 * stride, miss);
    ASSERT_EQ(dc.peek(0x1000), nullptr);

    // Protocol state survived in the store...
    EXPECT_EQ(store.lookup(0x1000).state, DirState::Excl);
    EXPECT_EQ(store.lookup(0x1000).owner, 6);

    // ...but the detector bits were dropped (Section 2.2).
    DirCacheEntry *back = dc.access(0x1000, miss);
    EXPECT_EQ(back->dir.owner, 6);
    EXPECT_EQ(back->detector.lastWriter, invalidNode);
}

TEST(DirectoryCache, BusyEntriesAreNotEvictable)
{
    DirectoryStore store;
    DirectoryCache dc(smallDirCache(), 128, store, Rng(1));
    bool miss;
    const Addr stride = 4 * 128;
    dc.access(0x1000, miss)->dir.state = DirState::BusyRead;
    dc.access(0x1000 + stride, miss)->dir.state = DirState::BusyExcl;
    // Both ways of the set busy: a third line cannot be cached.
    EXPECT_EQ(dc.access(0x1000 + 2 * stride, miss), nullptr);
}

TEST(DirectoryCache, FlushWritesEverythingBack)
{
    DirectoryStore store;
    DirectoryCache dc(smallDirCache(), 128, store, Rng(1));
    bool miss;
    dc.access(0x1000, miss)->dir.memVersion = 42;
    dc.flush();
    EXPECT_EQ(store.lookup(0x1000).memVersion, 42u);
    EXPECT_EQ(dc.occupancy(), 0u);
}
