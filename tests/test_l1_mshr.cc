/** @file L1 cache and MSHR table tests. */

#include <gtest/gtest.h>

#include "src/cache/l1_cache.hh"
#include "src/cache/mshr.hh"

using namespace pcsim;

TEST(L1Cache, FillAndLookup)
{
    L1Cache l1(L1Config{}, Rng(1));
    EXPECT_FALSE(l1.lookup(0x1000));
    l1.fill(0x1000);
    EXPECT_TRUE(l1.lookup(0x1000));
    // Same 32 B line hits; the next line does not.
    EXPECT_TRUE(l1.lookup(0x101f));
    EXPECT_FALSE(l1.lookup(0x1020));
}

TEST(L1Cache, BackInvalidateCoversL2Line)
{
    L1Cache l1(L1Config{}, Rng(1));
    // Fill all four 32 B L1 lines under one 128 B L2 line.
    for (Addr a = 0x2000; a < 0x2080; a += 32)
        l1.fill(a);
    l1.fill(0x2080); // belongs to the next L2 line
    l1.invalidateRange(0x2000, 128);
    for (Addr a = 0x2000; a < 0x2080; a += 32)
        EXPECT_FALSE(l1.lookup(a));
    EXPECT_TRUE(l1.lookup(0x2080));
}

TEST(L1Cache, ConfigGeometry)
{
    L1Config cfg;
    cfg.sizeBytes = 1024;
    cfg.ways = 2;
    cfg.lineBytes = 32;
    cfg.hitLatency = 3;
    L1Cache l1(cfg, Rng(2));
    EXPECT_EQ(l1.hitLatency(), 3u);
    EXPECT_EQ(l1.lineBytes(), 32u);
}

TEST(MshrTable, AllocateAndFind)
{
    MshrTable t(2);
    EXPECT_EQ(t.find(0x100), nullptr);
    Mshr *m = t.allocate(0x100);
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->addr, 0x100u);
    EXPECT_EQ(t.find(0x100), m);
}

TEST(MshrTable, RejectsDuplicatesAndOverflow)
{
    MshrTable t(2);
    EXPECT_NE(t.allocate(0x100), nullptr);
    EXPECT_EQ(t.allocate(0x100), nullptr); // duplicate
    EXPECT_NE(t.allocate(0x200), nullptr);
    EXPECT_TRUE(t.full());
    EXPECT_EQ(t.allocate(0x300), nullptr); // full
    t.free(0x100);
    EXPECT_NE(t.allocate(0x300), nullptr);
}

TEST(Mshr, ReadReadyNeedsData)
{
    Mshr m;
    m.isWrite = false;
    EXPECT_FALSE(m.ready());
    m.haveData = true;
    EXPECT_TRUE(m.ready());
}

TEST(Mshr, WriteReadyNeedsAckCountAndAcks)
{
    Mshr m;
    m.isWrite = true;
    m.haveData = true;
    EXPECT_FALSE(m.ready()); // ack count unknown
    m.acksExpected = 2;
    EXPECT_FALSE(m.ready());
    m.acksReceived = 1;
    EXPECT_FALSE(m.ready());
    m.acksReceived = 2;
    EXPECT_TRUE(m.ready());
}

TEST(Mshr, AcksMayArriveBeforeCountKnown)
{
    Mshr m;
    m.isWrite = true;
    m.haveData = true;
    m.acksReceived = 3; // early acks
    EXPECT_FALSE(m.ready());
    m.acksExpected = 3;
    EXPECT_TRUE(m.ready());
}

TEST(Mshr, LostCopyUpgradeNeedsData)
{
    Mshr m;
    m.isWrite = true;
    m.acksExpected = 0;
    m.lostCopy = true;
    EXPECT_FALSE(m.ready()); // dataless grant no longer sufficient
    m.haveData = true;
    EXPECT_TRUE(m.ready());
}

TEST(MshrTable, ForEachVisitsAll)
{
    MshrTable t(4);
    t.allocate(0x100);
    t.allocate(0x200);
    int n = 0;
    t.forEach([&](Mshr &) { ++n; });
    EXPECT_EQ(n, 2);
}

TEST(MshrTable, PointerSurvivesNeighbourChurn)
{
    // The cache controller holds Mshr* across events while other
    // misses come and go; the table must never move an MSHR.
    MshrTable t(16);
    Mshr *kept = t.allocate(0x4000);
    ASSERT_NE(kept, nullptr);
    kept->isWrite = true;
    kept->acksExpected = 3;
    kept->txnId = 77;
    bool fired = false;
    kept->onComplete = [&fired](Version) { fired = true; };

    for (int round = 0; round < 4; ++round) {
        for (Addr i = 1; i < 16; ++i)
            ASSERT_NE(t.allocate(0x4000 + i * 0x80), nullptr);
        EXPECT_TRUE(t.full());
        // Free oldest-first, then newest-first, so the live list
        // reshuffles around the kept entry.
        for (Addr i = 1; i < 16; ++i)
            t.free(0x4000 + (round % 2 ? 16 - i : i) * 0x80);
        EXPECT_EQ(t.size(), 1u);
        EXPECT_EQ(t.find(0x4000), kept);
    }
    EXPECT_EQ(kept->addr, 0x4000u);
    EXPECT_TRUE(kept->isWrite);
    EXPECT_EQ(kept->acksExpected, 3);
    EXPECT_EQ(kept->txnId, 77u);
    kept->onComplete(1);
    EXPECT_TRUE(fired);
}

TEST(MshrTable, ReusedSlotStartsFromDefault)
{
    MshrTable t(16);
    Mshr *m = t.allocate(0x100);
    m->reqAddr = 0x104;
    m->isWrite = true;
    m->reqType = MsgType::ReqExcl;
    m->haveData = true;
    m->version = 9;
    m->exclusiveGrant = true;
    m->acksExpected = 2;
    m->acksReceived = 2;
    m->lostCopy = true;
    m->fillInvalidated = true;
    m->retries = 5;
    m->txnId = 12;
    m->issued = 400;
    m->usedNetwork = true;
    m->thirdParty = true;
    m->onComplete = [](Version) {};
    t.free(0x100);

    Mshr *r = t.allocate(0x200);
    ASSERT_EQ(r, m); // the pool hands the freed slot back
    const Mshr fresh;
    EXPECT_EQ(r->addr, 0x200u);
    EXPECT_EQ(r->reqAddr, fresh.reqAddr);
    EXPECT_EQ(r->isWrite, fresh.isWrite);
    EXPECT_EQ(r->reqType, fresh.reqType);
    EXPECT_EQ(r->haveData, fresh.haveData);
    EXPECT_EQ(r->version, fresh.version);
    EXPECT_EQ(r->exclusiveGrant, fresh.exclusiveGrant);
    EXPECT_EQ(r->acksExpected, fresh.acksExpected);
    EXPECT_EQ(r->acksReceived, fresh.acksReceived);
    EXPECT_EQ(r->lostCopy, fresh.lostCopy);
    EXPECT_EQ(r->fillInvalidated, fresh.fillInvalidated);
    EXPECT_EQ(r->retries, fresh.retries);
    EXPECT_EQ(r->txnId, fresh.txnId);
    EXPECT_EQ(r->issued, fresh.issued);
    EXPECT_EQ(r->usedNetwork, fresh.usedNetwork);
    EXPECT_EQ(r->thirdParty, fresh.thirdParty);
    EXPECT_FALSE(r->onComplete);
}
