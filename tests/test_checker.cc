/** @file Tests of the coherence/SC checker itself: it must detect
 *  each class of violation (death tests) and accept legal histories. */

#include <gtest/gtest.h>

#include <vector>

#include "src/protocol/checker.hh"

using namespace pcsim;

namespace
{

/** A hand-controlled node view for feeding the checker lies. */
struct FakeNode : CheckerNodeView
{
    LineState state = LineState::Invalid;
    Version version = 0;
    bool hasRac = false;
    Version racVersion = 0;
    bool racPinned = false;
    DirEntry dir;

    LineState
    l2State(Addr, Version &v) const override
    {
        v = version;
        return state;
    }
    bool
    racCopy(Addr, Version &v, bool &pinned) const override
    {
        v = racVersion;
        pinned = racPinned;
        return hasRac;
    }
    const ProducerEntry *producerEntry(Addr) const override
    {
        return nullptr;
    }
    DirEntry homeDirEntry(Addr) const override { return dir; }
};

} // namespace

TEST(VersionAuthority, BumpAndCurrent)
{
    VersionAuthority a;
    EXPECT_EQ(a.current(0x100), 0u);
    EXPECT_EQ(a.bump(0x100), 1u);
    EXPECT_EQ(a.bump(0x100), 2u);
    EXPECT_EQ(a.current(0x100), 2u);
    EXPECT_EQ(a.current(0x200), 0u);
    EXPECT_EQ(a.numLines(), 1u);
}

TEST(Checker, LegalHistoryAccepted)
{
    CoherenceChecker c(true);
    FakeNode n0, n1;
    c.addNode(&n0);
    c.addNode(&n1);

    EXPECT_EQ(c.storePerformed(0, 0x100, 0), 1u);
    c.loadPerformed(0, 0x100, 1);
    c.loadPerformed(1, 0x100, 1);
    EXPECT_EQ(c.storePerformed(1, 0x100, 1), 2u);
    EXPECT_GT(c.numChecks(), 0u);
}

TEST(Checker, ReadHistoryKeepsEveryNodeLinePairApart)
{
    // Line addresses may use bits up to 55 and node ids go to 4095.
    // A read-history key of (node << 48) ^ line made (node k, line 0)
    // and (node 0, line k << 48) one slot, so node k's first read of
    // line 0 looked older than node 0's store to line k << 48.
    CoherenceChecker c(true);
    std::vector<FakeNode> nodes(4096);
    for (FakeNode &n : nodes)
        c.addNode(&n);

    for (const NodeId k : {1, 255, 4095}) {
        const Addr high = Addr(k) << 48;
        EXPECT_EQ(c.storePerformed(0, high, 0), 1u);
        c.loadPerformed(k, 0x0, 0);
        c.loadPerformed(0, high, 1);
    }
    const Addr top = (Addr(1) << 56) - 64;
    EXPECT_EQ(c.storePerformed(4095, top, 0), 1u);
    c.loadPerformed(0, top, 1);
    c.loadPerformed(4095, top, 1);
}

TEST(CheckerDeath, LostUpdateDetected)
{
    CoherenceChecker c(true);
    FakeNode n0;
    c.addNode(&n0);
    c.storePerformed(0, 0x100, 0);
    // Writing again from the stale version 0 loses version 1.
    EXPECT_DEATH(c.storePerformed(0, 0x100, 0), "lost update");
}

TEST(CheckerDeath, SingleWriterViolationDetected)
{
    CoherenceChecker c(true);
    FakeNode n0, n1;
    c.addNode(&n0);
    c.addNode(&n1);
    n1.state = LineState::Shared; // node 1 still holds a copy
    n1.version = 0;
    EXPECT_DEATH(c.storePerformed(0, 0x100, 0), "single-writer");
}

TEST(CheckerDeath, RacCopyAlsoViolatesSingleWriter)
{
    CoherenceChecker c(true);
    FakeNode n0, n1;
    c.addNode(&n0);
    c.addNode(&n1);
    n1.hasRac = true;
    EXPECT_DEATH(c.storePerformed(0, 0x100, 0), "RAC");
}

TEST(CheckerDeath, FutureReadDetected)
{
    CoherenceChecker c(true);
    FakeNode n0;
    c.addNode(&n0);
    EXPECT_DEATH(c.loadPerformed(0, 0x100, 5), "future");
}

TEST(CheckerDeath, NonMonotonicReadDetected)
{
    CoherenceChecker c(true);
    FakeNode n0;
    c.addNode(&n0);
    c.storePerformed(0, 0x100, 0);
    c.storePerformed(0, 0x100, 1);
    c.loadPerformed(0, 0x100, 2);
    EXPECT_DEATH(c.loadPerformed(0, 0x100, 1), "non-monotonic");
}

TEST(CheckerDeath, QuiescentStaleSharerDetected)
{
    CoherenceChecker c(true);
    FakeNode n0;
    c.addNode(&n0);
    c.storePerformed(0, 0x100, 0); // current = 1
    n0.state = LineState::Shared;
    n0.version = 0; // stale copy
    n0.dir.state = DirState::Shared;
    n0.dir.addSharer(0);
    n0.dir.memVersion = 1;
    EXPECT_DEATH(
        c.checkQuiescent([](Addr) { return NodeId(0); }),
        "version");
}

TEST(CheckerDeath, QuiescentDirectoryMismatchDetected)
{
    CoherenceChecker c(true);
    FakeNode n0, n1;
    c.addNode(&n0);
    c.addNode(&n1);
    c.storePerformed(1, 0x100, 0);
    n1.state = LineState::Modified;
    n1.version = 1;
    // Home claims Unowned while node 1 owns the line.
    n0.dir.state = DirState::Unowned;
    n0.dir.memVersion = 1;
    EXPECT_DEATH(
        c.checkQuiescent([](Addr) { return NodeId(0); }),
        "Unowned");
}

TEST(Checker, DisabledCheckerIsPassive)
{
    CoherenceChecker c(false);
    FakeNode n0, n1;
    c.addNode(&n0);
    c.addNode(&n1);
    n1.state = LineState::Modified; // would violate if enabled
    EXPECT_EQ(c.storePerformed(0, 0x100, 0), 1u); // bumps only
    c.loadPerformed(0, 0x100, 99);                // ignored
    EXPECT_EQ(c.numChecks(), 0u);
}

TEST(Checker, QuiescentAcceptsShadowedPinnedRac)
{
    // A producer's pinned RAC copy one epoch behind its own M copy is
    // legal (it is refreshed at the next downgrade).
    CoherenceChecker c(true);
    FakeNode n0;
    c.addNode(&n0);
    c.storePerformed(0, 0x100, 0);
    c.storePerformed(0, 0x100, 1); // current = 2
    n0.state = LineState::Modified;
    n0.version = 2;
    n0.hasRac = true;
    n0.racPinned = true;
    n0.racVersion = 1; // shadowed, stale: allowed
    n0.dir.state = DirState::Excl;
    n0.dir.owner = 0;
    c.checkQuiescent([](Addr) { return NodeId(0); });
}
