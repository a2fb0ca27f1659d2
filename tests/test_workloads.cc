/** @file Workload generator tests: structure, determinism and
 *  barrier consistency of the Table 2 suite and the micros. */

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>

#include "src/workload/micro.hh"
#include "src/workload/suite.hh"

using namespace pcsim;

namespace
{

struct Counts
{
    std::size_t reads = 0;
    std::size_t writes = 0;
    std::size_t thinks = 0;
    std::size_t barriers = 0;
};

Counts
drain(Workload &w, unsigned cpu)
{
    Counts c;
    MemOp op;
    while (w.next(cpu, op)) {
        switch (op.kind) {
          case MemOp::Kind::Read: ++c.reads; break;
          case MemOp::Kind::Write: ++c.writes; break;
          case MemOp::Kind::Think: ++c.thinks; break;
          case MemOp::Kind::Barrier: ++c.barriers; break;
        }
    }
    return c;
}

} // namespace

TEST(Suite, NamesMatchThePaper)
{
    const auto names = suiteNames();
    ASSERT_EQ(names.size(), 7u);
    EXPECT_EQ(names[0], "Barnes");
    EXPECT_EQ(names[6], "Appbt");
}

TEST(Suite, FactoryBuildsEveryWorkload)
{
    for (const auto &name : suiteNames()) {
        auto w = makeWorkload(name, 16, 0.2);
        ASSERT_NE(w, nullptr);
        EXPECT_EQ(w->name(), name);
        EXPECT_EQ(w->numCpus(), 16u);
        EXPECT_FALSE(w->paperProblemSize().empty());
        EXPECT_FALSE(w->scaledProblemSize().empty());
    }
}

class SuiteWorkload : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SuiteWorkload, EveryCpuHasWork)
{
    auto w = makeWorkload(GetParam(), 16, 0.2);
    for (unsigned cpu = 0; cpu < 16; ++cpu) {
        Counts c = drain(*w, cpu);
        EXPECT_GT(c.reads + c.writes, 0u) << "cpu " << cpu;
        EXPECT_GE(c.barriers, 1u) << "cpu " << cpu;
    }
}

TEST_P(SuiteWorkload, BarrierCountsAgreeAcrossCpus)
{
    // Mismatched barrier counts would deadlock the run.
    auto w = makeWorkload(GetParam(), 16, 0.2);
    std::size_t expect = drain(*w, 0).barriers;
    for (unsigned cpu = 1; cpu < 16; ++cpu)
        EXPECT_EQ(drain(*w, cpu).barriers, expect) << "cpu " << cpu;
}

TEST_P(SuiteWorkload, DeterministicAcrossInstances)
{
    auto a = makeWorkload(GetParam(), 16, 0.2);
    auto b = makeWorkload(GetParam(), 16, 0.2);
    for (unsigned cpu = 0; cpu < 16; ++cpu) {
        MemOp oa, ob;
        while (true) {
            const bool ra = a->next(cpu, oa);
            const bool rb = b->next(cpu, ob);
            ASSERT_EQ(ra, rb);
            if (!ra)
                break;
            ASSERT_EQ(oa.kind, ob.kind);
            ASSERT_EQ(oa.addr(), ob.addr());
            ASSERT_EQ(oa.cycles(), ob.cycles());
        }
    }
}

TEST_P(SuiteWorkload, ResetRewindsAllStreams)
{
    auto w = makeWorkload(GetParam(), 16, 0.2);
    MemOp first;
    ASSERT_TRUE(w->next(0, first));
    drain(*w, 0);
    w->reset();
    MemOp again;
    ASSERT_TRUE(w->next(0, again));
    EXPECT_EQ(first.kind, again.kind);
    EXPECT_EQ(first.addr(), again.addr());
}

TEST_P(SuiteWorkload, FirstPhaseIsInitThenBarrier)
{
    // The parallel-phase convention: barrier generation 1 ends init,
    // so every CPU's first barrier must come before any read of
    // remote data (init is pure first-touch writes).
    auto w = makeWorkload(GetParam(), 16, 0.2);
    for (unsigned cpu = 0; cpu < 16; ++cpu) {
        MemOp op;
        while (w->next(cpu, op)) {
            if (op.kind == MemOp::Kind::Barrier)
                break;
            EXPECT_NE(op.kind, MemOp::Kind::Read)
                << "cpu " << cpu << " reads before init barrier";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllApps, SuiteWorkload,
                         ::testing::ValuesIn(suiteNames()));

TEST(Suite, ScaleShrinksIterations)
{
    auto big = makeWorkload("Ocean", 16, 1.0);
    auto small = makeWorkload("Ocean", 16, 0.25);
    const auto big_ops =
        static_cast<TraceWorkload *>(big.get())->totalOps();
    const auto small_ops =
        static_cast<TraceWorkload *>(small.get())->totalOps();
    EXPECT_LT(small_ops, big_ops);
}

TEST(Suite, ScaleBeyondAnIterationCountThrows)
{
    for (const auto &name : suiteNames()) {
        try {
            makeWorkload(name, 4, 1e300);
            ADD_FAILURE() << name << " built at scale 1e300";
        } catch (const std::invalid_argument &e) {
            EXPECT_EQ(std::string(e.what()),
                      "workload '" + name + "' cannot run at scale "
                      "1e+300: its scaled count is outside "
                      "0..4294967295");
        }
    }
    // The floor applies below the range; UINT32_MAX is its top.
    EXPECT_EQ(scaledCount("Ocean", 10, 1e-300, 4), 4u);
    EXPECT_EQ(scaledCount("Ocean", 4294967295u, 1.0, 4), 4294967295u);
    EXPECT_THROW(scaledCount("Ocean", 1u << 31, 2.0, 4),
                 std::invalid_argument);
}

TEST(Micro, ProducerConsumerShape)
{
    ProducerConsumerMicro::Params p;
    p.producer = 2;
    p.numConsumers = 3;
    p.lines = 4;
    p.iterations = 5;
    ProducerConsumerMicro w(16, p);
    // The producer writes lines * iterations times (plus no reads of
    // the shared lines).
    Counts prod = drain(w, 2);
    EXPECT_EQ(prod.writes, 4u * 5);
    EXPECT_EQ(prod.reads, 0u);
    // Consumers (3,4,5) read every line every iteration.
    w.reset();
    Counts cons = drain(w, 3);
    EXPECT_EQ(cons.reads, 4u * 5);
    EXPECT_EQ(cons.writes, 0u);
    // A bystander neither reads nor writes the shared lines.
    w.reset();
    Counts other = drain(w, 9);
    EXPECT_EQ(other.reads + other.writes, 0u);
}

TEST(Micro, MigratoryEveryoneTakesTurns)
{
    MigratoryMicro::Params p;
    p.lines = 2;
    p.iterations = 32;
    MigratoryMicro w(16, p);
    for (unsigned cpu = 0; cpu < 16; ++cpu) {
        Counts c = drain(w, cpu);
        EXPECT_EQ(c.writes, 2u * 2 + (cpu == 0 ? 2u : 0)); // 32/16 turns
    }
}

TEST(Micro, RandomSameBarrierCounts)
{
    RandomMicro w(16);
    const auto b0 = drain(w, 0).barriers;
    for (unsigned cpu = 1; cpu < 16; ++cpu)
        EXPECT_EQ(drain(w, cpu).barriers, b0);
}

TEST(Micro, RandomDeterministicPerSeed)
{
    RandomMicro::Params p;
    p.seed = 5;
    RandomMicro a(16, p), b(16, p);
    MemOp oa, ob;
    while (a.next(0, oa)) {
        ASSERT_TRUE(b.next(0, ob));
        ASSERT_EQ(oa.addr(), ob.addr());
        ASSERT_EQ(oa.kind, ob.kind);
    }
}
