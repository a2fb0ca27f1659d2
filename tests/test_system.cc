/** @file System assembly, presets and configuration tests. */

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "harness.hh"
#include "src/runner/job.hh"
#include "src/verify/spec.hh"
#include "src/workload/micro.hh"
#include "src/workload/suite.hh"

using namespace pcsim;

TEST(Presets, BaseMatchesTable1)
{
    MachineConfig m = presets::base(16);
    EXPECT_EQ(m.proto.numNodes, 16u);
    EXPECT_EQ(m.proto.lineBytes, 128u);
    EXPECT_EQ(m.proto.l2SizeBytes, 2u * 1024 * 1024);
    EXPECT_EQ(m.proto.l2Ways, 4u);
    EXPECT_EQ(m.proto.l1.sizeBytes, 32u * 1024);
    EXPECT_EQ(m.proto.l1.lineBytes, 32u);
    EXPECT_EQ(m.proto.mshrs, 16u);
    EXPECT_EQ(m.proto.dram.accessLatency, 200u);
    EXPECT_EQ(m.net.hopLatency, 100u);
    EXPECT_FALSE(m.proto.racEnabled);
    EXPECT_EQ(m.proto.kind, ProtocolKind::MesiDir);
    EXPECT_FALSE(m.proto.delegationEnabled());
    EXPECT_FALSE(m.proto.updatesEnabled());
}

TEST(Presets, SmallAndLargeConfigurations)
{
    MachineConfig s = presets::small(16);
    EXPECT_TRUE(s.proto.racEnabled);
    EXPECT_EQ(s.proto.kind, ProtocolKind::DelegationUpdates);
    EXPECT_TRUE(s.proto.delegationEnabled());
    EXPECT_TRUE(s.proto.updatesEnabled());
    EXPECT_EQ(s.proto.delegate.producerEntries, 32u);
    EXPECT_EQ(s.proto.rac.sizeBytes, 32u * 1024);
    EXPECT_EQ(s.proto.interventionDelay, 50u);

    MachineConfig l = presets::large(16);
    EXPECT_EQ(l.proto.delegate.producerEntries, 1024u);
    EXPECT_EQ(l.proto.rac.sizeBytes, 1024u * 1024);
}

TEST(Presets, Figure7HasSixConfigsInPaperOrder)
{
    auto cfgs = presets::figure7Configs(16);
    ASSERT_EQ(cfgs.size(), 6u);
    EXPECT_EQ(cfgs[0].name, "Base");
    EXPECT_EQ(cfgs[1].name, "32K RAC");
    EXPECT_FALSE(cfgs[1].cfg.proto.delegationEnabled());
    EXPECT_TRUE(cfgs[2].cfg.proto.updatesEnabled());
    EXPECT_EQ(cfgs[3].cfg.proto.delegate.producerEntries, 1024u);
    EXPECT_EQ(cfgs[4].cfg.proto.rac.sizeBytes, 32u * 1024);
    EXPECT_EQ(cfgs[5].cfg.proto.delegate.producerEntries, 32u);
}

TEST(Presets, CacheGeometryLimitsAreValidated)
{
    // A set index is a 16-bit ordinal and a way's LRU rank 8 bits; the
    // message is the one the array's constructor dies with.
    MachineConfig m = presets::base(16);
    m.proto.l2SetsOverride = 65535;
    EXPECT_EQ(m.proto.validateError(), "");
    m.proto.l2SetsOverride = 65536;
    EXPECT_EQ(m.proto.validateError(),
              "l2: 65536 sets overflow the 16-bit set index (max 65535)");
    EXPECT_DEATH({ System sys(m); }, "16-bit set index");

    m = presets::base(16);
    m.proto.dirCache.ways = 256;
    m.proto.dirCache.entries = 256 * 8;
    EXPECT_EQ(m.proto.validateError(),
              "dircache: 256 ways overflow the 8-bit LRU rank (max 255)");
    m.proto.dirCache.ways = 255;
    m.proto.dirCache.entries = 255 * 8;
    EXPECT_EQ(m.proto.validateError(), "");
}

TEST(SystemDeath, DelegationWithoutRacIsRejected)
{
    MachineConfig m = presets::base(16);
    m.proto.kind = ProtocolKind::Delegation;
    EXPECT_DEATH({ System sys(m); }, "RAC");
}

TEST(SystemDeath, UpdateBasedWithRacIsRejected)
{
    // The RAC speculatively caches data a consumer lost to an
    // invalidation; update-based kinds never invalidate, so the
    // combination is rejected as inconsistent.
    MachineConfig m = presets::racOnly(32 * 1024, 16);
    m.proto.kind = ProtocolKind::WriteUpdate;
    EXPECT_DEATH({ System sys(m); }, "update-based");
}

TEST(SystemDeath, ZeroAdaptiveThresholdIsRejected)
{
    MachineConfig m = presets::adaptiveHybrid(16, 0);
    EXPECT_DEATH({ System sys(m); }, "adaptiveThreshold");
}

TEST(SystemDeath, WorkloadCpuMismatchIsFatal)
{
    ProducerConsumerMicro wl(8);
    System sys(presets::base(16));
    EXPECT_DEATH(sys.run(wl), "CPUs");
}

TEST(SystemTest, NodeCountIsConfigurable)
{
    for (unsigned n : {1u, 2u, 4u, 8u, 16u}) {
        System sys(presets::base(n));
        EXPECT_EQ(sys.numNodes(), n);
    }
}

TEST(SystemTest, RunResultAggregatesNodes)
{
    ProducerConsumerMicro wl(16);
    System sys(presets::base(16));
    RunResult r = sys.run(wl);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.nodes.reads, 0u);
    EXPECT_GT(r.nodes.writes, 0u);
    EXPECT_GT(r.netMessages, 0u);
    EXPECT_GT(r.netBytes, r.netMessages * 32);
    EXPECT_EQ(r.workload, "PCmicro");
}

TEST(SystemTest, TickLimitDetectsUnfinishedRuns)
{
    ProducerConsumerMicro wl(16);
    System sys(presets::base(16));
    EXPECT_DEATH(sys.run(wl, /*max_ticks=*/10), "unfinished");
}

TEST(SystemTest, SeedChangesNothingForDeterministicWorkloads)
{
    // Randomness only drives replacement tie-breaks and retry jitter;
    // two different seeds must still produce valid (and close) runs.
    ProducerConsumerMicro wl(16);
    MachineConfig a = withConformance(presets::small(16));
    a.seed = 1;
    MachineConfig b = withConformance(presets::small(16));
    b.seed = 99;
    RunResult ra = runWorkload(a, wl, "a");
    RunResult rb = runWorkload(b, wl, "b");
    EXPECT_NEAR(double(ra.cycles), double(rb.cycles),
                0.1 * double(ra.cycles));
}

TEST(SystemTest, FootprintFollowsTouchedSetsOnly)
{
    {
        // Building a machine materializes no cache or directory set.
        System sys(presets::large(1024));
        for (unsigned i = 0; i < sys.numNodes(); ++i)
            ASSERT_EQ(sys.hub(i).materializedSets().total(), 0u)
                << "node " << i;
    }

    // The checker probes every node's L2 on every store and the
    // conformance hook probes controller state; neither may allocate.
    auto perNode = [](bool verify) {
        MachineConfig cfg = presets::large(16);
        cfg.proto.checkerEnabled = verify;
        cfg.proto.conformanceEnabled = verify;
        ProducerConsumerMicro wl(16);
        System sys(cfg);
        sys.run(wl);
        std::vector<std::size_t> sets;
        for (unsigned i = 0; i < sys.numNodes(); ++i) {
            const MaterializedSets m = sys.hub(i).materializedSets();
            sets.insert(sets.end(),
                        {m.l1, m.l2, m.rac, m.dirCache, m.delegate});
        }
        return sets;
    };
    const std::vector<std::size_t> plain = perNode(false);
    EXPECT_GT(std::accumulate(plain.begin(), plain.end(), std::size_t{0}),
              0u);
    EXPECT_EQ(perNode(true), plain);
}

TEST(SystemTest, TombstonesOnlyWhereAnUpdateCanArrive)
{
    // Only handleUpdate reads a tombstone. Invalidate-only policies
    // send Invals but never allocate the table; delegation-updates
    // fills it from every Inval. The update-based policies keep it
    // on, but their homes never send an Inval to record.
    struct Seen
    {
        std::uint64_t invals = 0;
        std::size_t slots = 0;
    };
    const auto run = [](const MachineConfig &cfg) {
        ProducerConsumerMicro wl(16);
        System sys(cfg);
        sys.run(wl);
        Seen seen;
        seen.invals = sys.network().numByType(MsgType::Inval);
        for (unsigned i = 0; i < sys.numNodes(); ++i)
            seen.slots += sys.hub(i).cacheCtrl().tombstoneSlots();
        return seen;
    };
    for (const MachineConfig &cfg :
         {presets::base(16), presets::delegationOnly()}) {
        const char *name = protocolKindName(cfg.proto.kind);
        EXPECT_FALSE(cfg.proto.sendsUpdates()) << name;
        const Seen seen = run(cfg);
        EXPECT_GT(seen.invals, 0u) << name;
        EXPECT_EQ(seen.slots, 0u) << name;
    }
    const Seen du = run(presets::small(16));
    EXPECT_GT(du.invals, 0u);
    EXPECT_GT(du.slots, 0u);
    for (const MachineConfig &cfg :
         {presets::writeUpdate(16), presets::adaptiveHybrid(16)}) {
        const char *name = protocolKindName(cfg.proto.kind);
        EXPECT_TRUE(cfg.proto.sendsUpdates()) << name;
        EXPECT_EQ(run(cfg).invals, 0u) << name;
    }
}

namespace
{

/** Passes a workload through and records, when the run pulls its
 *  first op, how many op streams have allocation slack. */
class SlackProbe : public Workload
{
  public:
    explicit SlackProbe(Workload &inner) : _inner(inner) {}

    const std::string &name() const override { return _inner.name(); }
    unsigned numCpus() const override { return _inner.numCpus(); }
    void reset() override { _inner.reset(); }
    const std::vector<MemOp> *
    cpuOps(unsigned cpu) const override
    {
        return _inner.cpuOps(cpu);
    }

    bool
    next(unsigned cpu, MemOp &op) override
    {
        if (loose < 0) {
            loose = 0;
            for (unsigned c = 0; c < numCpus(); ++c)
                loose += slack(c) ? 1 : 0;
        }
        return _inner.next(cpu, op);
    }

    bool
    slack(unsigned cpu) const
    {
        const std::vector<MemOp> *ops = cpuOps(cpu);
        return ops->capacity() != ops->size();
    }

    int loose = -1; ///< streams with slack at the first op (-1 = none yet)

  private:
    Workload &_inner;
};

} // namespace

TEST(SystemTest, OpStreamsHaveNoSlackWhenTheRunStarts)
{
    // Generators grow their streams op by op; the run must not carry
    // the growth slack.
    unsigned built_loose = 0;
    for (const std::string &name : workloadNames()) {
        std::unique_ptr<Workload> wl = makeWorkload(name, 16, 0.02);
        SlackProbe probe(*wl);
        unsigned before = 0;
        for (unsigned c = 0; c < probe.numCpus(); ++c)
            before += probe.slack(c) ? 1 : 0;
        built_loose += before;
        runWorkload(presets::base(16), probe, "base");
        EXPECT_EQ(probe.loose, 0) << name << ": " << before
                                  << " streams had slack when built";
    }
    EXPECT_GT(built_loose, 0u);
}

TEST(SystemTest, HubLineAlignment)
{
    System sys(presets::base(16));
    EXPECT_EQ(sys.hub(0).lineOf(0x12345), 0x12345ull & ~127ull);
}

TEST(SystemTest, EveryArrayRunsAtTheProtocolLineSize)
{
    // The L2, the RAC, both delegate tables and the directory cache
    // align lines at ProtocolConfig::lineBytes: a run at any other
    // line size stays coherent and within the spec.
    for (std::uint32_t line : {64u, 256u}) {
        for (const char *name : {"PCmicro", "Em3D", "WorkQueue"}) {
            MachineConfig cfg = presets::small(16);
            cfg.proto.lineBytes = line;
            cfg.proto.checkerEnabled = true;
            cfg.proto.conformanceEnabled = true;
            const std::unique_ptr<Workload> wl = makeWorkload(name, 16, 0.25);
            const RunResult r = runWorkload(cfg, *wl, "small");
            EXPECT_GT(r.cycles, 0u) << name << " at " << line;
            EXPECT_FALSE(r.conformance.empty()) << name << " at " << line;
        }
    }
}

TEST(MessageNames, AllTypesHaveNames)
{
    for (unsigned t = 0;
         t < static_cast<unsigned>(MsgType::NumMsgTypes); ++t) {
        const char *name = msgTypeName(static_cast<MsgType>(t));
        EXPECT_STRNE(name, "Unknown") << "type " << t;
        // 23..30 are the codes of the spec's local events, no wire type.
        const bool local = t >= 23 && t <= 30;
        EXPECT_EQ(isMessageType(t), !local) << "type " << t;
        if (local) {
            EXPECT_STREQ(name, "Reserved") << "type " << t;
            continue;
        }
        EXPECT_STRNE(name, "Reserved") << "type " << t;
        EXPECT_STREQ(verify::eventName(verify::eventOf(
                         static_cast<MsgType>(t))),
                     name);
    }
}

TEST(MessageNames, ToStringContainsTypeAndAddr)
{
    Message m;
    m.type = MsgType::Delegate;
    m.addr = 0xabc00;
    m.src = 1;
    m.dst = 2;
    const std::string s = m.toString();
    EXPECT_NE(s.find("Delegate"), std::string::npos);
    EXPECT_NE(s.find("abc00"), std::string::npos);
}
