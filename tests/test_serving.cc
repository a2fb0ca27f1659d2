/** @file Serving workload family tests: deterministic generation,
 *  balanced barrier arrivals at any machine size, the sharing
 *  structure each scenario promises, and end-to-end runs (with the
 *  coherence checker) showing the adaptive protocol engaging on the
 *  producer-consumer shaped members. */

#include <gtest/gtest.h>

#include "src/runner/sweeps.hh"
#include "src/system/presets.hh"
#include "src/system/system.hh"
#include "src/workload/serving.hh"
#include "src/workload/suite.hh"

using namespace pcsim;

namespace
{

unsigned
barrierCount(const std::vector<MemOp> &stream)
{
    unsigned n = 0;
    for (const auto &op : stream)
        n += op.kind == MemOp::Kind::Barrier ? 1 : 0;
    return n;
}

/** Drain a TraceWorkload into per-cpu vectors via the public API. */
std::vector<std::vector<MemOp>>
drain(Workload &wl)
{
    std::vector<std::vector<MemOp>> out(wl.numCpus());
    for (unsigned cpu = 0; cpu < wl.numCpus(); ++cpu) {
        MemOp op;
        while (wl.next(cpu, op))
            out[cpu].push_back(op);
    }
    wl.reset();
    return out;
}

void
expectBalancedBarriers(Workload &wl)
{
    const auto streams = drain(wl);
    const unsigned expected = barrierCount(streams[0]);
    EXPECT_GT(expected, 0u);
    for (unsigned cpu = 1; cpu < streams.size(); ++cpu)
        EXPECT_EQ(barrierCount(streams[cpu]), expected)
            << wl.name() << " cpu " << cpu;
}

} // namespace

TEST(Serving, GenerationIsDeterministic)
{
    for (const auto &name : servingNames()) {
        auto a = makeWorkload(name, 16);
        auto b = makeWorkload(name, 16);
        const auto sa = drain(*a);
        const auto sb = drain(*b);
        ASSERT_EQ(sa.size(), sb.size()) << name;
        for (unsigned cpu = 0; cpu < sa.size(); ++cpu) {
            ASSERT_EQ(sa[cpu].size(), sb[cpu].size())
                << name << " cpu " << cpu;
            for (std::size_t i = 0; i < sa[cpu].size(); ++i) {
                EXPECT_EQ(sa[cpu][i].kind, sb[cpu][i].kind);
                EXPECT_EQ(sa[cpu][i].addr(), sb[cpu][i].addr());
            }
        }
    }
}

TEST(Serving, BarriersBalancedAtOddAndLargeSizes)
{
    // Deadlock-freedom precondition: every node must arrive at every
    // barrier, whatever the machine size.
    for (unsigned n : {2u, 5u, 16u, 33u, 1024u}) {
        KvServingWorkload kv(n);
        WorkQueueWorkload wq(n);
        RcuWorkload rcu(n);
        PubSubWorkload ps(n);
        expectBalancedBarriers(kv);
        expectBalancedBarriers(wq);
        expectBalancedBarriers(rcu);
        expectBalancedBarriers(ps);
    }
}

TEST(Serving, KvZipfSkewsTowardHotKeys)
{
    KvServingWorkload::Params p;
    p.keyLines = 64;
    p.requestsPerNode = 2000;
    KvServingWorkload wl(4, p);
    const auto streams = drain(wl);

    // Count accesses to the hottest key line vs an arbitrary tail key.
    const Addr hot = wl.keyLine(0);
    const Addr cold = wl.keyLine(p.keyLines - 1);
    std::size_t hotN = 0, coldN = 0, init = 0;
    for (const auto &s : streams) {
        bool parallel = false;
        for (const auto &op : s) {
            if (op.kind == MemOp::Kind::Barrier) {
                parallel = true;
                continue;
            }
            if (!parallel) {
                ++init;
                continue;
            }
            hotN += op.addr() == hot ? 1 : 0;
            coldN += op.addr() == cold ? 1 : 0;
        }
    }
    EXPECT_EQ(init, p.keyLines); // striped first-touch, each key once
    // Zipf(0.99) over 64 ranks: rank 0 draws >10x rank 63.
    EXPECT_GT(hotN, coldN * 10);
}

TEST(Serving, WorkQueueProducerSplit)
{
    EXPECT_EQ(WorkQueueWorkload(16).numProducers(), 4u);
    EXPECT_EQ(WorkQueueWorkload(2).numProducers(), 1u);
    // Degenerate single-node machine still constructs and balances.
    WorkQueueWorkload solo(1);
    EXPECT_EQ(solo.numProducers(), 1u);
    expectBalancedBarriers(solo);
}

TEST(Serving, AdaptiveProtocolEngagesOnProducerConsumerMembers)
{
    // WorkQueue, RCU and PubSub have stable producer->consumer line
    // ownership, so delegation + speculative updates must both beat
    // base and actually deliver consumed updates. (KVServe's Zipf
    // readers touch keys from random nodes, so the conservative
    // detector rightly stays out -- not asserted here.)
    for (const auto &name :
         {std::string("WorkQueue"), std::string("RCU"),
          std::string("PubSub")}) {
        auto make = [&](unsigned n) -> std::unique_ptr<Workload> {
            if (name == "WorkQueue")
                return std::make_unique<WorkQueueWorkload>(n);
            if (name == "RCU")
                return std::make_unique<RcuWorkload>(n);
            return std::make_unique<PubSubWorkload>(n);
        };
        MachineConfig baseCfg = presets::base(16);
        MachineConfig optCfg = presets::small(16);
        baseCfg.proto.checkerEnabled = true;
        optCfg.proto.checkerEnabled = true;
        auto wb = make(16);
        auto wo = make(16);
        RunResult b = runWorkload(baseCfg, *wb, "base");
        RunResult o = runWorkload(optCfg, *wo, "small");
        EXPECT_LT(o.cycles, b.cycles) << name;
        EXPECT_GT(o.nodes.updatesConsumed, 0u) << name;
    }
}

TEST(Serving, ServeJobsBuildsFullMatrix)
{
    const runner::Sweep *serve = runner::findSweep("serve");
    ASSERT_NE(serve, nullptr);
    const runner::JobSet set = serve->jobs({});
    // 4 scenarios x 2 node counts x 3 mechanisms.
    EXPECT_EQ(set.size(), 24u);
    EXPECT_EQ(set.jobs()[0].label, "KVServe/n16/base");

    runner::SweepArgs bad;
    bad.scenarios = {"NotAScenario"};
    EXPECT_TRUE(serve->jobs(bad).empty());

    runner::SweepArgs big;
    big.scenarios = {"kvserve"}; // case-insensitive
    big.nodes = {1024};
    const runner::JobSet bigSet = serve->jobs(big);
    EXPECT_EQ(bigSet.size(), 3u);
    EXPECT_EQ(bigSet.jobs()[0].workload, "KVServe");
}
