/** @file Directory delegation tests (Section 2.3): delegation grant,
 *  request forwarding, consumer-table hints, all three undelegation
 *  reasons, and the NACK/retry races around them. */

#include <gtest/gtest.h>

#include "harness.hh"

using namespace pcsim;

namespace
{

MachineConfig
deleCfg(std::size_t entries = 32, std::size_t rac = 32 * 1024)
{
    return presets::delegationOnly(entries, rac, 16);
}

/** Run producer/consumer epochs until the detector saturates:
 *  the Nth write (N = saturation + 1 = 4) triggers delegation. */
void
saturate(Harness &h, Addr a, unsigned producer, unsigned consumer,
         unsigned epochs = 4)
{
    for (unsigned i = 0; i < epochs; ++i) {
        h.write(producer, a);
        h.read(consumer, a);
    }
}

} // namespace

TEST(Delegation, StablePatternDelegatesToProducer)
{
    Harness h(deleCfg());
    const Addr a = testLine(0);
    h.read(0, a); // home = 0
    saturate(h, a, /*producer=*/5, /*consumer=*/9);
    h.write(5, a); // the saturated pattern delegates on this write
    EXPECT_TRUE(h.delegated(5, a));
    EXPECT_EQ(h.dir(a).state, DirState::Dele);
    EXPECT_EQ(h.dir(a).owner, 5);
    EXPECT_EQ(h.stats(0).delegationsGranted, 1u);
    EXPECT_EQ(h.stats(5).delegationsReceived, 1u);
    h.checkQuiescent();
}

TEST(Delegation, PinsSurrogateMemoryInRac)
{
    Harness h(deleCfg());
    const Addr a = testLine(0);
    h.read(0, a);
    saturate(h, a, 5, 9);
    h.write(5, a);
    ASSERT_TRUE(h.delegated(5, a));
    Version v;
    bool pinned = false;
    ASSERT_TRUE(h.sys.hub(5).racCopy(a, v, pinned));
    EXPECT_TRUE(pinned);
}

TEST(Delegation, SelfDelegationSkipsRacPin)
{
    Harness h(deleCfg());
    const Addr a = testLine(0);
    // Producer 5 is also the home (first touch by its own write).
    saturate(h, a, 5, 9);
    h.write(5, a);
    ASSERT_TRUE(h.delegated(5, a));
    Version v;
    bool pinned;
    EXPECT_FALSE(h.sys.hub(5).racCopy(a, v, pinned));
    h.checkQuiescent();
}

TEST(Delegation, ConsumerReadsBecomeTwoHop)
{
    Harness h(deleCfg());
    const Addr a = testLine(0);
    h.read(0, a);
    saturate(h, a, 5, 9);
    h.write(5, a);
    ASSERT_TRUE(h.delegated(5, a));

    // First read after delegation is forwarded (and plants the hint);
    // subsequent misses go straight to the delegated home.
    h.read(9, a);
    const auto fwd = h.stats(0).forwardedRequests;
    EXPECT_GE(fwd, 1u);
    h.write(5, a);
    h.read(9, a);
    EXPECT_EQ(h.stats(0).forwardedRequests, fwd); // no new forward
    EXPECT_EQ(h.read(9, a), h.l2Version(5, a));
    h.checkQuiescent();
}

TEST(Delegation, DelegatedWritesAreServedLocally)
{
    Harness h(deleCfg());
    const Addr a = testLine(0);
    h.read(0, a);
    saturate(h, a, 5, 9);
    h.write(5, a);
    ASSERT_TRUE(h.delegated(5, a));
    const auto before = h.stats(5).delegatedLocalOps;
    h.read(9, a);  // consumer takes a copy
    h.write(5, a); // producer writes again: local directory op
    EXPECT_GT(h.stats(5).delegatedLocalOps, before);
    EXPECT_EQ(h.l2State(9, a), LineState::Invalid); // invalidated
    h.checkQuiescent();
}

TEST(Delegation, ConflictWriteUndelegates)
{
    Harness h(deleCfg());
    const Addr a = testLine(0);
    h.read(0, a);
    saturate(h, a, 5, 9);
    h.write(5, a);
    ASSERT_TRUE(h.delegated(5, a));

    h.write(9, a); // reason 3: another node wants exclusive access
    EXPECT_FALSE(h.delegated(5, a));
    EXPECT_EQ(h.stats(5).undelegationsConflict, 1u);
    DirEntry d = h.dir(a);
    EXPECT_EQ(d.state, DirState::Excl);
    EXPECT_EQ(d.owner, 9);
    EXPECT_EQ(h.l2State(5, a), LineState::Invalid);
    h.checkQuiescent();
}

TEST(Delegation, CapacityEvictionUndelegates)
{
    // A 4-entry producer table cannot hold 8 delegated lines.
    Harness h(deleCfg(/*entries=*/4));
    h.read(0, testLine(100)); // make node 0 the home of the region
    for (unsigned l = 0; l < 8; ++l) {
        const Addr a = testLine(l);
        h.read(0, a);
        saturate(h, a, 5, 9);
        h.write(5, a);
    }
    EXPECT_GT(h.stats(5).undelegationsCapacity, 0u);
    unsigned delegated = 0;
    for (unsigned l = 0; l < 8; ++l)
        delegated += h.delegated(5, testLine(l));
    EXPECT_LE(delegated, 4u);
    h.checkQuiescent();
}

TEST(Delegation, StaleHintBouncesToHome)
{
    Harness h(deleCfg());
    const Addr a = testLine(0);
    h.read(0, a);
    saturate(h, a, 5, 9);
    h.write(5, a);
    h.read(9, a); // 9 now holds a consumer-table hint for 5

    h.write(9, a); // undelegates (reason 3)
    ASSERT_FALSE(h.delegated(5, a));

    // 9's own hint still points at 5; its next miss must bounce off 5
    // (NackNotHome), drop the hint and succeed at the home.
    h.write(5, a); // invalidate 9's copy so it misses again...
    h.read(9, a);
    EXPECT_EQ(h.read(9, a), h.dir(a).memVersion);
    h.checkQuiescent();
}

TEST(Delegation, DetectorMustResaturateAfterUndelegation)
{
    Harness h(deleCfg());
    const Addr a = testLine(0);
    h.read(0, a);
    saturate(h, a, 5, 9);
    h.write(5, a);
    ASSERT_TRUE(h.delegated(5, a));
    h.write(9, a); // undelegate
    ASSERT_FALSE(h.delegated(5, a));

    // One producer epoch is not enough to re-delegate...
    h.write(5, a);
    h.read(9, a);
    h.write(5, a);
    EXPECT_FALSE(h.delegated(5, a));
    // ...but a fresh saturation is.
    h.read(9, a);
    saturate(h, a, 5, 9);
    h.write(5, a);
    EXPECT_TRUE(h.delegated(5, a));
    h.checkQuiescent();
}

TEST(Delegation, MigratorySharingNeverDelegates)
{
    Harness h(deleCfg());
    const Addr a = testLine(0);
    h.read(0, a);
    for (unsigned it = 0; it < 12; ++it) {
        const unsigned cpu = 1 + (it % 3);
        h.read(cpu, a);
        h.write(cpu, a);
    }
    for (unsigned c = 0; c < 16; ++c)
        EXPECT_FALSE(h.delegated(c, a));
    EXPECT_EQ(h.stats(0).delegationsGranted, 0u);
    h.checkQuiescent();
}

TEST(Delegation, ProducerFlushAbsorbedByPinnedRac)
{
    MachineConfig m = deleCfg();
    m.proto.l2SizeBytes = 4 * 128; // 4 sets x 1 way
    m.proto.l2Ways = 1;
    Harness h(m);
    const Addr a = testLine(0);
    h.read(0, a);
    saturate(h, a, 5, 9);
    h.write(5, a);
    ASSERT_TRUE(h.delegated(5, a));

    // Evict the delegated line from 5's L2: the data lands in the
    // pinned RAC entry and the delegation survives (see DESIGN.md).
    h.write(5, testLine(4));
    EXPECT_EQ(h.l2State(5, a), LineState::Invalid);
    EXPECT_TRUE(h.delegated(5, a));
    EXPECT_EQ(h.read(9, a), h.sys.checker().authority().current(a));
    h.checkQuiescent();
}

TEST(Delegation, DelegationOnlyNeverSendsUpdates)
{
    Harness h(deleCfg());
    const Addr a = testLine(0);
    h.read(0, a);
    saturate(h, a, 5, 9);
    h.write(5, a);
    h.read(9, a);
    h.write(5, a);
    h.sys.eventQueue().run();
    std::uint64_t updates = 0;
    for (unsigned c = 0; c < 16; ++c)
        updates += h.stats(c).updatesSent;
    EXPECT_EQ(updates, 0u);
}

TEST(Delegation, RacingConflictDuringDelegationResolves)
{
    Harness h(deleCfg());
    const Addr a = testLine(0);
    h.read(0, a);
    saturate(h, a, 5, 9);
    // The delegating write and a competing write race each other.
    h.race({{5, true, a}, {11, true, a}});
    h.checkQuiescent();
    const DirEntry d = h.dir(a);
    EXPECT_TRUE(d.state == DirState::Excl || d.state == DirState::Dele);
}

TEST(Delegation, UndeleReHandleKeepsItsSharerSet)
{
    // The sharer set an Undele carries lives in pooled side storage.
    // When the home re-handles the Undele later (no free directory
    // way), the re-handle's copy of the message must keep that set
    // alive: another Delegate/Undele delivered in between recycles
    // pooled storage, and must not overwrite the snapshot the home is
    // about to restore. 128 nodes, so the set spans two words.
    MachineConfig cfg = presets::delegationOnly(32, 32 * 1024, 128);
    // One directory way per home: a busy line wedges the home.
    cfg.proto.dirCache.entries = 1;
    cfg.proto.dirCache.ways = 1;
    // The re-handle waits long enough for the second Undele to be
    // delivered and consumed first.
    cfg.proto.retryBase = 2000;
    Harness h(cfg);
    EventQueue &eq = h.sys.eventQueue();
    const Addr a = testLine(0);
    const Addr b = testLine(1);
    const Addr c = testLine(1024); // another page, another home

    // Line a: home 0, delegated to 2, read by 100, 70 and 127.
    h.read(0, a);
    saturate(h, a, 2, 100);
    h.write(2, a);
    ASSERT_TRUE(h.delegated(2, a));
    h.read(70, a);
    h.read(127, a);
    SharerSet want = h.sys.hub(2).producerEntry(a)->dir.sharers;
    want.add(2); // the producer keeps a plain copy in its RAC
    ASSERT_TRUE(want.contains(70) && want.contains(100) &&
                want.contains(127));

    // Line b: home 0, exclusive at 3. Line c: home 1, delegated to 4
    // and read by 90.
    h.read(0, b);
    h.write(3, b);
    h.read(1, c);
    saturate(h, c, 4, 90);
    h.write(4, c);
    h.read(90, c);
    ASSERT_TRUE(h.delegated(4, c));
    ASSERT_EQ(h.home(b), 0);
    ASSERT_EQ(h.home(c), 1);

    // Node 5 reads b: home 0 holds b busy while it recalls the data
    // from owner 3, and its one directory way cannot be evicted.
    bool done = false;
    h.sys.hub(5).cpuAccess(false, b, [&](Version) { done = true; });
    while (!h.dir(b).busy())
        ASSERT_TRUE(eq.step());

    // Undelegate a now: its Undele reaches the wedged home and is
    // queued for a local re-handle.
    const std::uint64_t rehandles = h.stats(0).dirRehandleRetries;
    h.sys.hub(2).prodCtrl().undelegateForRacPressure(a);
    while (h.stats(0).dirRehandleRetries == rehandles)
        ASSERT_TRUE(eq.step());
    ASSERT_EQ(h.dir(a).state, DirState::Dele);

    // Before the re-handle fires, undelegate c: its Undele takes side
    // storage, is delivered to home 1 and consumed.
    h.sys.hub(4).prodCtrl().undelegateForRacPressure(c);
    while (h.dir(c).state == DirState::Dele)
        ASSERT_TRUE(eq.step());
    ASSERT_EQ(h.dir(a).state, DirState::Dele);

    eq.run();
    EXPECT_TRUE(done);
    const DirEntry d = h.dir(a);
    EXPECT_EQ(d.state, DirState::Shared);
    EXPECT_EQ(d.sharers, want) << d.sharers.toString() << " vs "
                               << want.toString();
    EXPECT_GT(h.stats(0).dirRehandleRetries, rehandles);
}
