/**
 * @file
 * Fault injection and retry robustness: the shared backoff curve, the
 * deterministic FaultPlan, configuration validation, a seeded NACK
 * storm under directory-cache pressure, and byte-identical faulted
 * results across worker-thread counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/net/faults.hh"
#include "src/protocol/backoff.hh"
#include "src/protocol/config.hh"
#include "src/runner/results.hh"
#include "src/runner/runner.hh"
#include "src/runner/sweeps.hh"
#include "src/system/presets.hh"
#include "src/system/system.hh"
#include "src/workload/workload.hh"

using namespace pcsim;

// --- backoff curve ------------------------------------------------

TEST(Backoff, FlatDefaultMatchesPaperFormula)
{
    ProtocolConfig cfg; // retryBase=64, retryJitter=64, retryExpCap=0
    Rng rng(42);
    for (std::uint64_t attempt = 0; attempt < 200; ++attempt) {
        std::size_t exp = 99;
        const Tick d = retryBackoff(cfg, attempt, rng, &exp);
        EXPECT_EQ(exp, 0u);
        EXPECT_GE(d, cfg.retryBase);
        EXPECT_LE(d, cfg.retryBase + cfg.retryJitter);
    }
}

TEST(Backoff, ExponentialGrowsThenCaps)
{
    ProtocolConfig cfg;
    cfg.retryBase = 64;
    cfg.retryJitter = 0; // isolate the deterministic part
    cfg.retryExpCap = 3;
    Rng rng(1);
    const Tick expect[] = {64, 128, 256, 512, 512, 512, 512};
    for (std::uint64_t attempt = 0; attempt < 7; ++attempt) {
        std::size_t exp = 99;
        EXPECT_EQ(retryBackoff(cfg, attempt, rng, &exp),
                  expect[attempt]);
        EXPECT_EQ(exp, std::min<std::uint64_t>(attempt, 3));
    }
}

TEST(Backoff, JitterBoundsHoldUnderExponent)
{
    ProtocolConfig cfg;
    cfg.retryBase = 10;
    cfg.retryJitter = 7;
    cfg.retryExpCap = 5;
    Rng rng(7);
    for (std::uint64_t attempt = 0; attempt < 64; ++attempt) {
        const Tick lo = cfg.retryBase
                        << std::min<std::uint64_t>(attempt, 5);
        const Tick d = retryBackoff(cfg, attempt, rng);
        EXPECT_GE(d, lo);
        EXPECT_LE(d, lo + cfg.retryJitter);
    }
}

TEST(Backoff, DeterministicFromForkedRng)
{
    ProtocolConfig cfg;
    cfg.retryExpCap = 4;
    Rng a(123), b(123);
    Rng fa = a.fork(), fb = b.fork();
    for (std::uint64_t attempt = 0; attempt < 100; ++attempt)
        EXPECT_EQ(retryBackoff(cfg, attempt, fa),
                  retryBackoff(cfg, attempt, fb));
}

// --- FaultPlan ----------------------------------------------------

namespace
{

FaultConfig
stormConfig()
{
    FaultConfig f;
    f.enabled = true;
    f.grayLinkFraction = 0.5;
    f.grayExtraLatency = 200;
    f.stallNodeFraction = 0.5;
    f.hotspotExtraLatency = 100;
    f.dirPressureWays = 1;
    return f;
}

} // namespace

TEST(FaultPlan, DeterministicFromSeed)
{
    const FaultConfig f = stormConfig();
    FaultPlan a(f, 16, Rng(99));
    FaultPlan b(f, 16, Rng(99));
    EXPECT_EQ(a.hotspotNode(), b.hotspotNode());
    for (NodeId s = 0; s < 16; ++s) {
        for (NodeId d = 0; d < 16; ++d) {
            EXPECT_EQ(a.linkIsGray(s, d), b.linkIsGray(s, d));
            for (Tick t : {Tick(0), Tick(12345), Tick(999999)}) {
                EXPECT_EQ(a.extraLatency(s, d, t),
                          b.extraLatency(s, d, t));
                EXPECT_EQ(a.stallClearTick(s, t),
                          b.stallClearTick(s, t));
                EXPECT_EQ(a.dirWaysLimit(s, t), b.dirWaysLimit(s, t));
            }
        }
    }
}

TEST(FaultPlan, WindowsAndBoundsAreSane)
{
    const FaultConfig f = stormConfig();
    FaultPlan p(f, 16, Rng(7));

    bool any_gray = false, any_stalled = false;
    std::uint64_t in_pressure = 0, probes = 0;
    for (NodeId n = 0; n < 16; ++n) {
        for (Tick t = 0; t < 4 * f.stallPeriod; t += 97) {
            // A stall can only push forward, and never past the end
            // of the current window.
            const Tick clear = p.stallClearTick(n, t);
            EXPECT_GE(clear, t);
            EXPECT_LE(clear, t + f.stallDuration);
            any_stalled = any_stalled || clear != t;

            // Pressure is all-or-nothing at the configured way count.
            const unsigned limit = p.dirWaysLimit(n, t);
            EXPECT_TRUE(limit == 0 || limit == f.dirPressureWays);
            in_pressure += limit != 0;
            ++probes;
        }
        for (NodeId d = 0; d < 16; ++d)
            any_gray = any_gray || p.linkIsGray(n, d);
    }
    EXPECT_TRUE(any_gray);
    EXPECT_TRUE(any_stalled);
    // Windowing means pressure is on part of the time, not always.
    EXPECT_GT(in_pressure, 0u);
    EXPECT_LT(in_pressure, probes);

    // Extra latency fires only on gray links / the hot spot, and a
    // non-gray, non-hotspot link pays nothing.
    EXPECT_LT(p.hotspotNode(), NodeId(16));
    for (NodeId s = 0; s < 16; ++s) {
        for (NodeId d = 0; d < 16; ++d) {
            if (p.linkIsGray(s, d) || d == p.hotspotNode())
                continue;
            for (Tick t = 0; t < 2 * f.grayPeriod; t += 1009)
                EXPECT_EQ(p.extraLatency(s, d, t), 0u);
        }
    }
}

// --- validation ---------------------------------------------------

TEST(FaultConfigValidation, RejectsBadKnobs)
{
    ProtocolConfig cfg;
    cfg.faults = stormConfig();
    EXPECT_EQ(cfg.validateError(), "");

    ProtocolConfig bad_frac = cfg;
    bad_frac.faults.grayLinkFraction = 1.5;
    EXPECT_NE(bad_frac.validateError(), "");

    ProtocolConfig bad_ways = cfg;
    bad_ways.faults.dirPressureWays =
        unsigned(cfg.dirCache.ways) + 1;
    EXPECT_NE(bad_ways.validateError(), "");

    ProtocolConfig bad_window = cfg;
    bad_window.faults.grayDuration = bad_window.faults.grayPeriod + 1;
    EXPECT_NE(bad_window.validateError(), "");

    ProtocolConfig no_mechanism;
    no_mechanism.faults.enabled = true;
    EXPECT_NE(no_mechanism.validateError(), "");

    ProtocolConfig bad_hotspot = cfg;
    bad_hotspot.faults.hotspotNode = 16; // 16-node machine: 0..15
    EXPECT_NE(bad_hotspot.validateError(), "");
}

TEST(RetryConfigValidation, GuardsJitterAndExpCap)
{
    ProtocolConfig cfg;
    cfg.retryJitter = 0;
    cfg.numNodes = 16;
    EXPECT_EQ(cfg.validateError(), ""); // small machine: permitted

    cfg.numNodes = 64;
    EXPECT_NE(cfg.validateError(), ""); // convoy hazard: rejected

    ProtocolConfig cap;
    cap.retryExpCap = 21;
    EXPECT_NE(cap.validateError(), "");

    ProtocolConfig zero_base;
    zero_base.retryBase = 0;
    EXPECT_NE(zero_base.validateError(), "");
}

// --- seeded NACK storm under directory pressure -------------------

namespace
{

/**
 * Every CPU hammers the same small set of lines with writes while the
 * directory cache is tiny and periodically pressured: ownership
 * bounces, the home's entries thrash, and pressure windows refuse
 * fills -- a sustained NACK storm that must still converge.
 */
class StormWorkload : public TraceWorkload
{
  public:
    StormWorkload(unsigned num_cpus, unsigned lines, unsigned iters)
        : TraceWorkload("NackStorm", num_cpus)
    {
        const Addr line_bytes = 128;
        // Init: CPU 0 first-touches everything (single home), then
        // everyone meets at the barrier that ends the init phase.
        for (unsigned c = 0; c < num_cpus; ++c) {
            auto &t = cpuTrace(c);
            if (c == 0) {
                for (unsigned l = 0; l < lines; ++l)
                    t.push_back(MemOp::write(l * line_bytes));
            }
            t.push_back(MemOp::barrier());
            for (unsigned i = 0; i < iters; ++i) {
                t.push_back(
                    MemOp::write((i % lines) * line_bytes));
                t.push_back(MemOp::read(0));
            }
            t.push_back(MemOp::barrier());
        }
    }
};

} // namespace

TEST(FaultInjection, NackStormConvergesBelowMaxRetries)
{
    MachineConfig cfg = presets::base(8);
    cfg.proto.conformanceEnabled = true; // checker is on by default
    cfg.proto.dirCache.entries = 8; // tiny: constant thrash
    cfg.proto.dirCache.ways = 2;
    cfg.proto.retryExpCap = 6;
    cfg.proto.faults.enabled = true;
    cfg.proto.faults.dirPressureWays = 1;
    cfg.proto.faults.dirPressurePeriod = 4000;
    cfg.proto.faults.dirPressureDuration = 2000;
    cfg.seed = 11;

    System sys(cfg);
    StormWorkload wl(8, /*lines=*/32, /*iters=*/60);
    const RunResult r = sys.run(wl);

    // The storm actually happened...
    EXPECT_GT(r.nodes.nacksReceived, 0u);
    EXPECT_GT(r.nodes.retries, 0u);
    EXPECT_GT(r.nodes.nackStormPeak, 0u);
    EXPECT_GT(r.nodes.backoffHist.total(), 0u);
    // ...and converged far below the livelock guard.
    EXPECT_GT(r.nodes.maxRetriesPerLine, 0u);
    EXPECT_LT(r.nodes.maxRetriesPerLine, cfg.proto.maxRetries);
    EXPECT_TRUE(r.faultsActive);
}

// --- faulted sweep: byte identity across thread counts ------------

TEST(FaultInjection, FaultedResultsByteIdenticalAcrossThreads)
{
    runner::SweepArgs opt;
    opt.nodes = {8};
    opt.scale = 0.2;
    opt.seeds = {3};
    const runner::JobSet set = runner::findSweep("faults")->jobs(opt);
    // scenarios x (base, delegation, delegate-update)
    ASSERT_EQ(set.size(), presets::faultScenarios().size() * 3);

    runner::RunnerOptions serial, pooled;
    serial.threads = 1;
    serial.progress = false;
    pooled.threads = 8;
    pooled.progress = false;

    const std::string a =
        runner::resultsToJson(runner::runJobs(set, serial), false)
            .dump(2);
    const std::string b =
        runner::resultsToJson(runner::runJobs(set, pooled), false)
            .dump(2);
    EXPECT_EQ(a, b);
}

TEST(FaultInjection, UnknownScenarioYieldsEmptyJobSet)
{
    runner::SweepArgs opt;
    opt.scenarios = {"no-such-scenario"};
    EXPECT_TRUE(runner::findSweep("faults")->jobs(opt).empty());
}

// --- results schema -----------------------------------------------

TEST(FaultResults, RetryBlockSerializesAndIsGated)
{
    RunResult r;
    r.workload = "w";
    r.config = "c";
    r.faultsActive = true;
    r.faultDelayedMessages = 17;
    r.faultExtraTicks = 4242;
    r.nodes.mshrConflictRetries = 3;
    r.nodes.dirRehandleRetries = 5;
    r.nodes.maxRetriesPerLine = 9;
    r.nodes.nackStormPeak = 21;
    r.nodes.backoffHist.sample(0);
    r.nodes.backoffHist.sample(2);

    const JsonValue v = runner::toJson(r, false);
    const JsonValue *retry = v.find("retry");
    ASSERT_NE(retry, nullptr);
    EXPECT_EQ(retry->at("faultDelayedMessages").asUInt(), 17u);
    EXPECT_EQ(retry->at("faultExtraTicks").asUInt(), 4242u);
    EXPECT_EQ(retry->at("mshrConflictRetries").asUInt(), 3u);
    EXPECT_EQ(retry->at("dirRehandleRetries").asUInt(), 5u);
    EXPECT_EQ(retry->at("maxRetriesPerLine").asUInt(), 9u);
    EXPECT_EQ(retry->at("nackStormPeak").asUInt(), 21u);
    const JsonValue &hist = retry->at("backoffHist");
    EXPECT_EQ(hist.at("total").asUInt(), 2u);
    EXPECT_EQ(hist.at("buckets").at(0).asUInt(), 1u);
    EXPECT_EQ(hist.at("buckets").at(2).asUInt(), 1u);

    // Fault-free results must not gain the block: default documents
    // stay byte-identical to the goldens.
    RunResult clean;
    clean.workload = "w";
    clean.config = "c";
    EXPECT_EQ(runner::toJson(clean, false).find("retry"), nullptr);
}

TEST(Histogram, MergeWidensAndAccumulates)
{
    Histogram a(4), b(8);
    a.sample(1);
    a.sample(3);
    b.sample(6);
    a.merge(b);
    EXPECT_EQ(a.numBuckets(), 8u);
    EXPECT_EQ(a.total(), 3u);
    EXPECT_EQ(a.bucket(1), 1u);
    EXPECT_EQ(a.bucket(3), 1u);
    EXPECT_EQ(a.bucket(6), 1u);
}
