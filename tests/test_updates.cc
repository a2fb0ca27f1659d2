/** @file Speculative update tests (Section 2.4): delayed
 *  interventions, selective pushes to the previous sharing vector,
 *  RAC landing, update-as-response and the delay knob. */

#include <gtest/gtest.h>

#include "harness.hh"

using namespace pcsim;

namespace
{

MachineConfig
updCfg(Tick delay = 50)
{
    MachineConfig m = presets::small(16);
    m.proto.interventionDelay = delay;
    return m;
}

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

TEST(Updates, DelayedInterventionDowngradesProducer)
{
    Harness h(updCfg());
    const Addr a = testLine(0);
    h.read(0, a);
    saturate(h, a, 5, 9);
    h.write(5, a); // delegates; epoch opens
    // The harness drains the queue, so the delayed intervention has
    // fired by now: the producer holds SHARED, not MODIFIED.
    EXPECT_EQ(h.l2State(5, a), LineState::Shared);
    EXPECT_GE(h.stats(5).delayedInterventions, 1u);
    h.checkQuiescent();
}

TEST(Updates, PushLandsInConsumerRac)
{
    Harness h(updCfg());
    const Addr a = testLine(0);
    h.read(0, a);
    saturate(h, a, 5, 9);
    h.write(5, a); // delegate
    h.read(9, a);  // 9 is a sharer now
    h.write(5, a); // invalidates 9, then pushes the new data
    EXPECT_EQ(h.l2State(9, a), LineState::Invalid);
    EXPECT_TRUE(h.racHas(9, a)); // pushed copy waiting
    EXPECT_GE(h.stats(5).updatesSent, 1u);
    EXPECT_GE(h.stats(9).updatesReceived, 1u);
    h.checkQuiescent();
}

TEST(Updates, ConsumerReadBecomesLocalMiss)
{
    Harness h(updCfg());
    const Addr a = testLine(0);
    h.read(0, a);
    saturate(h, a, 5, 9);
    h.write(5, a);
    h.read(9, a);
    h.write(5, a); // push in flight to 9
    const auto remote_before = h.stats(9).remoteMisses;
    const auto local_before = h.stats(9).localMisses;
    EXPECT_EQ(h.read(9, a), h.sys.checker().authority().current(a));
    EXPECT_EQ(h.stats(9).remoteMisses, remote_before);
    EXPECT_EQ(h.stats(9).localMisses, local_before + 1);
    EXPECT_GE(h.stats(9).updatesConsumed, 1u);
    h.checkQuiescent();
}

TEST(Updates, PushTargetsPreviousSharingVector)
{
    Harness h(updCfg());
    const Addr a = testLine(0);
    h.read(0, a);
    saturate(h, a, 5, 9);
    h.write(5, a);
    // Three consumers read this epoch.
    h.read(9, a);
    h.read(10, a);
    h.read(11, a);
    const auto sent_before = h.stats(5).updatesSent;
    h.write(5, a); // push to {9, 10, 11}
    EXPECT_EQ(h.stats(5).updatesSent, sent_before + 3);
    EXPECT_TRUE(h.racHas(9, a));
    EXPECT_TRUE(h.racHas(10, a));
    EXPECT_TRUE(h.racHas(11, a));
    // A node that never consumed gets nothing.
    EXPECT_FALSE(h.racHas(12, a));
    h.checkQuiescent();
}

TEST(Updates, SteadyStatePushesWithoutReads)
{
    // Once consumers hit in their RACs, their reads no longer reach
    // the producer -- but the old sharing vector keeps them in the
    // update set (Section 2.4.2), so pushes continue.
    Harness h(updCfg());
    const Addr a = testLine(0);
    h.read(0, a);
    saturate(h, a, 5, 9);
    h.write(5, a);
    h.read(9, a);
    for (int epoch = 0; epoch < 5; ++epoch) {
        h.write(5, a);
        EXPECT_EQ(h.read(9, a),
                  h.sys.checker().authority().current(a));
    }
    EXPECT_GE(h.stats(9).updatesConsumed, 4u);
    h.checkQuiescent();
}

TEST(Updates, InfiniteDelayDegradesToDelegationOnly)
{
    Harness h(updCfg(/*delay=*/maxTick));
    const Addr a = testLine(0);
    h.read(0, a);
    saturate(h, a, 5, 9);
    h.write(5, a);
    ASSERT_TRUE(h.delegated(5, a));
    h.read(9, a); // on-demand downgrade, 2-hop
    h.write(5, a);
    h.sys.eventQueue().run();
    EXPECT_EQ(h.stats(5).updatesSent, 0u);
    EXPECT_FALSE(h.racHas(9, a));
    h.checkQuiescent();
}

TEST(Updates, UpdatesKeepSequentialConsistency)
{
    // The reader must never see versions go backwards even when data
    // arrives via pushes (checker enforces monotonic reads).
    Harness h(updCfg());
    const Addr a = testLine(0);
    h.read(0, a);
    saturate(h, a, 5, 9);
    Version last = 0;
    for (int epoch = 0; epoch < 8; ++epoch) {
        h.write(5, a);
        const Version v = h.read(9, a);
        EXPECT_GE(v, last);
        last = v;
    }
    h.checkQuiescent();
}

TEST(Updates, WriteAfterPushInvalidatesRacCopy)
{
    Harness h(updCfg());
    const Addr a = testLine(0);
    h.read(0, a);
    saturate(h, a, 5, 9);
    h.write(5, a);
    h.read(9, a);
    h.write(5, a); // push lands in 9's RAC
    ASSERT_TRUE(h.racHas(9, a));
    h.write(5, a); // next epoch invalidates the RAC copy first...
    // ...and then pushes the fresh version again.
    Version v;
    bool pinned;
    ASSERT_TRUE(h.sys.hub(9).racCopy(a, v, pinned));
    EXPECT_EQ(v, h.sys.checker().authority().current(a));
    h.checkQuiescent();
}

TEST(Updates, ConflictWriterStillWins)
{
    // A third node writing the line undelegates and takes ownership
    // even while pushes are flowing.
    Harness h(updCfg());
    const Addr a = testLine(0);
    h.read(0, a);
    saturate(h, a, 5, 9);
    h.write(5, a);
    h.read(9, a);
    h.write(5, a);
    h.write(12, a);
    EXPECT_FALSE(h.delegated(5, a));
    EXPECT_EQ(h.dir(a).owner, 12);
    EXPECT_EQ(h.read(9, a), h.sys.checker().authority().current(a));
    h.checkQuiescent();
}

TEST(Updates, ExtraWriteMissWhenDelayTooShort)
{
    // A 1-cycle delay cuts write bursts: the second store of a burst
    // misses again (Section 3.3.2's "5-cycle" effect).
    Harness h(updCfg(/*delay=*/1));
    const Addr a = testLine(0);
    h.read(0, a);
    saturate(h, a, 5, 9);
    // A write burst issued back-to-back (each store fired from the
    // previous one's completion, like a real CPU): the 1-cycle
    // intervention cuts it, forcing re-upgrades.
    int remaining = 6;
    // A continuation must be trivially copyable: the recursive
    // std::function rides along by reference.
    std::function<void(Version)> burst = [&](Version) {
        if (--remaining > 0)
            h.sys.hub(5).cpuAccess(true, a,
                                   [&burst](Version v) { burst(v); });
    };
    h.sys.hub(5).cpuAccess(true, a, [&burst](Version v) { burst(v); });
    h.sys.eventQueue().run();
    EXPECT_EQ(remaining, 0);
    EXPECT_GT(h.stats(5).extraWriteMisses, 0u);
}

TEST(Updates, RacingReadDuringEpochIsServed)
{
    Harness h(updCfg());
    const Addr a = testLine(0);
    h.read(0, a);
    saturate(h, a, 5, 9);
    h.write(5, a);
    h.read(9, a);
    // Read races the producer's write: either NACK-retry-then-RAC-hit
    // or a direct reply; both must return fresh data.
    h.race({{5, true, a}, {9, false, a}});
    EXPECT_EQ(h.read(9, a), h.sys.checker().authority().current(a));
    h.checkQuiescent();
}

class UpdateDelaySweep : public ::testing::TestWithParam<Tick>
{
};

TEST_P(UpdateDelaySweep, CorrectAtAnyDelay)
{
    Harness h(updCfg(GetParam()));
    const Addr a = testLine(0);
    h.read(0, a);
    saturate(h, a, 5, 9);
    for (int epoch = 0; epoch < 4; ++epoch) {
        h.write(5, a);
        EXPECT_EQ(h.read(9, a),
                  h.sys.checker().authority().current(a));
        EXPECT_EQ(h.read(11, a),
                  h.sys.checker().authority().current(a));
    }
    h.checkQuiescent();
}

INSTANTIATE_TEST_SUITE_P(Delays, UpdateDelaySweep,
                         ::testing::Values(1, 5, 50, 500, 5000, 50000,
                                           maxTick));
