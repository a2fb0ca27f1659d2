/** @file Barrier driver tests: completion, generations, and the
 *  coherence traffic it generates (reload flurry). */

#include <gtest/gtest.h>

#include "harness.hh"

using namespace pcsim;

namespace
{

/** All CPUs arrive; returns when every one has passed. */
void
runBarrier(Harness &h, unsigned cpus)
{
    unsigned passed = 0;
    for (unsigned c = 0; c < cpus; ++c)
        h.sys.barrier().arrive(c, [&passed]() { ++passed; });
    h.sys.eventQueue().run();
    ASSERT_EQ(passed, cpus);
}

} // namespace

TEST(Barrier, AllCpusPass)
{
    Harness h(presets::base(16));
    runBarrier(h, 16);
    EXPECT_EQ(h.sys.barrier().generationsCompleted(), 1u);
}

TEST(Barrier, MultipleGenerations)
{
    Harness h(presets::base(16));
    for (int g = 0; g < 5; ++g)
        runBarrier(h, 16);
    EXPECT_EQ(h.sys.barrier().generationsCompleted(), 5u);
}

TEST(Barrier, GenerationCallbackFires)
{
    Harness h(presets::base(16));
    std::vector<std::uint64_t> gens;
    h.sys.barrier().setOnGeneration(
        [&](std::uint64_t g, Tick) { gens.push_back(g); });
    runBarrier(h, 16);
    runBarrier(h, 16);
    EXPECT_EQ(gens, (std::vector<std::uint64_t>{1, 2}));
}

TEST(Barrier, StaggeredArrivalsStillComplete)
{
    Harness h(presets::base(16));
    unsigned passed = 0;
    // The master arrives first and must wait for every slave. Stale
    // spinners park on their flag line instead of re-polling, so each
    // bounded run drains its queue; the arriving slaves' writes wake
    // the master, which collects them all once the last one shows up.
    h.sys.barrier().arrive(0, [&passed]() { ++passed; });
    h.sys.eventQueue().run(h.sys.eventQueue().curTick() + 20000);
    EXPECT_TRUE(h.sys.eventQueue().empty());
    EXPECT_EQ(passed, 0u);
    for (unsigned c = 1; c < 16; ++c) {
        h.sys.barrier().arrive(c, [&passed]() { ++passed; });
        h.sys.eventQueue().run(h.sys.eventQueue().curTick() + 20000);
    }
    EXPECT_EQ(passed, 16u);
}

TEST(Barrier, LastArriverReleasesPromptly)
{
    Harness h(presets::base(16));
    unsigned passed = 0;
    for (unsigned c = 1; c < 16; ++c)
        h.sys.barrier().arrive(c, [&passed]() { ++passed; });
    h.sys.eventQueue().run(h.sys.eventQueue().curTick() + 20000);
    EXPECT_EQ(passed, 0u); // master missing
    h.sys.barrier().arrive(0, [&passed]() { ++passed; });
    h.sys.eventQueue().run(h.sys.eventQueue().curTick() + 50000);
    EXPECT_EQ(passed, 16u);
}

namespace
{

/** Every CPU writes its own line and enters a barrier, except the
 *  last, which skips it. */
class SkippedBarrier : public TraceWorkload
{
  public:
    explicit SkippedBarrier(unsigned cpus)
        : TraceWorkload("SkippedBarrier", cpus)
    {
        for (unsigned c = 0; c < cpus; ++c) {
            cpuTrace(c).push_back(MemOp::write(testLine(c)));
            if (c + 1 < cpus)
                cpuTrace(c).push_back(MemOp::barrier());
        }
    }
};

} // namespace

TEST(BarrierDeath, NeverCompletingBarrierEndsTheRun)
{
    // The 15 CPUs waiting on CPU 15 park on their flags, the queue
    // drains, and the run reports the stuck CPUs instead of spinning
    // to the tick limit.
    EXPECT_EXIT(
        {
            System sys(presets::base(16));
            SkippedBarrier wl(16);
            sys.run(wl);
        },
        ::testing::ExitedWithCode(1),
        "event queue drained with 15 CPUs unfinished");
}

TEST(Barrier, GeneratesCoherenceTraffic)
{
    Harness h(presets::base(16));
    runBarrier(h, 16);
    // Arrival flags and the release flag are real coherent lines.
    EXPECT_GT(h.sys.network().numMessages(), 0u);
}

TEST(Barrier, SingleCpuDegenerate)
{
    Harness h(presets::base(1));
    unsigned passed = 0;
    h.sys.barrier().arrive(0, [&passed]() { ++passed; });
    h.sys.eventQueue().run();
    EXPECT_EQ(passed, 1u);
}

TEST(Barrier, WorksUnderFullMechanismConfig)
{
    Harness h(presets::large(16));
    for (int g = 0; g < 8; ++g)
        runBarrier(h, 16);
    EXPECT_EQ(h.sys.barrier().generationsCompleted(), 8u);
    h.checkQuiescent();
}
