/**
 * @file
 * Directory arbitration under NACK storms: the sliding NACK-rate
 * window, the 0-based retry-attempt accounting, overflow-safe retry
 * knob validation, fairness-telemetry serialization, and the
 * starvation acceptance test -- parked-queue arbitration must bound
 * the worst per-line wait that pure NACK-and-retry lets grow.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/protocol/config.hh"
#include "src/protocol/hub.hh"
#include "src/protocol/node_stats.hh"
#include "src/runner/results.hh"
#include "src/runner/runner.hh"
#include "src/runner/sweeps.hh"
#include "src/system/presets.hh"
#include "src/system/system.hh"
#include "src/workload/workload.hh"

using namespace pcsim;

// --- sliding NACK-storm window ------------------------------------

TEST(NackStormWindow, BurstStraddlingBoxcarBoundaryCountsInFull)
{
    // Regression: the old boxcar counter reset whenever
    // tick / window changed, so a burst of 10 split 5 + 5 across the
    // aligned boundary at tick `window` reported a peak of 5 -- half
    // its true rate. The sliding ring must report all 10.
    NackStormWindow w;
    std::uint64_t peak = 0;
    for (int i = 0; i < 5; ++i)
        peak = std::max(peak, w.note(NackStormWindow::window - 10));
    for (int i = 0; i < 5; ++i)
        peak = std::max(peak, w.note(NackStormWindow::window + 10));
    EXPECT_EQ(peak, 10u);
}

TEST(NackStormWindow, OldNacksExpireAfterOneWindow)
{
    NackStormWindow w;
    for (int i = 0; i < 7; ++i)
        w.note(100);
    // A full window later the old burst has aged out entirely.
    EXPECT_EQ(w.note(100 + NackStormWindow::window), 1u);
}

TEST(NackStormWindow, TrailingWindowSlidesBucketByBucket)
{
    constexpr Tick sub = NackStormWindow::window /
                         NackStormWindow::numBuckets;
    NackStormWindow w;
    w.note(0);                                   // bucket 0
    EXPECT_EQ(w.note(NackStormWindow::window - sub), 2u);
    // One sub-bucket further: the tick-0 note falls off the ring but
    // the second one is still inside the trailing window.
    EXPECT_EQ(w.note(NackStormWindow::window), 2u);
    EXPECT_EQ(w.note(NackStormWindow::window + sub), 3u);
}

// --- 0-based retry-attempt accounting -----------------------------

TEST(RetryTelemetry, MaxRetriesPerLineIsZeroBasedAttemptIndex)
{
    // Regression: sites used to mix 0-based attempt indices with
    // 1-based retry counts, inflating maxRetriesPerLine by one
    // depending on which path observed the line. noteRetryAttempt is
    // the single funnel: attempt 0 (a line NACKed once, then
    // satisfied) must report max 0.
    NodeStats ns;
    EXPECT_EQ(ns.maxRetriesPerLine, 0u);
    ns.noteRetryAttempt(0);
    EXPECT_EQ(ns.maxRetriesPerLine, 0u);
    ns.noteRetryAttempt(3);
    ns.noteRetryAttempt(1);
    EXPECT_EQ(ns.maxRetriesPerLine, 3u);

    NodeStats other;
    other.noteRetryAttempt(5);
    ns += other;
    EXPECT_EQ(ns.maxRetriesPerLine, 5u); // merged by max
}

// --- retry knob validation ----------------------------------------

TEST(RetryConfigValidation, RejectsTickOverflowCombinations)
{
    constexpr std::uint64_t max_tick = ~std::uint64_t(0);

    // retryBase << retryExpCap overflowing the Tick range used to
    // validate cleanly and wrap to a tiny backoff at runtime.
    ProtocolConfig shift;
    shift.retryExpCap = 6;
    shift.retryBase = (max_tick >> 6) + 1;
    EXPECT_NE(shift.validateError().find("overflows the Tick range"),
              std::string::npos);
    shift.retryBase = max_tick >> 6; // largest safe value: accepted
    EXPECT_EQ(shift.validateError(), "");

    // retryJitter == UINT64_MAX: the uniform draw is over
    // [0, retryJitter], so the bound + 1 wraps to a zero-width range.
    ProtocolConfig jitter;
    jitter.retryJitter = max_tick;
    EXPECT_NE(jitter.validateError().find("retryJitter + 1 overflows"),
              std::string::npos);
}

TEST(ArbitrationConfig, NamesRoundTripAndDepthIsValidated)
{
    for (Arbitration a : {Arbitration::NackRetry, Arbitration::Queue,
                          Arbitration::AgedPriority}) {
        Arbitration back;
        ASSERT_TRUE(arbitrationFromName(arbitrationName(a), back));
        EXPECT_EQ(back, a);
    }
    Arbitration out;
    EXPECT_FALSE(arbitrationFromName("no-such-mode", out));

    ProtocolConfig cfg;
    cfg.arbitration = Arbitration::Queue;
    EXPECT_EQ(cfg.validateError(), "");
    cfg.arbQueueDepth = 0;
    EXPECT_NE(cfg.validateError().find("arbQueueDepth"),
              std::string::npos);
    // Depth 0 is only meaningless when a queue mode is selected.
    cfg.arbitration = Arbitration::NackRetry;
    EXPECT_EQ(cfg.validateError(), "");
}

// --- fairness telemetry schema ------------------------------------

TEST(FairnessResults, BlockSerializesAndIsGated)
{
    RunResult r;
    r.workload = "w";
    r.config = "c";
    r.arbitrationActive = true;
    r.missLatencyP50 = 40;
    r.missLatencyP95 = 600;
    r.missLatencyP99 = 1500;
    r.nodes.maxLineWaitTicks = 9001;
    r.nodes.queueDepthPeak = 12;
    r.nodes.missLatencyHist.sample(latencyBucketOf(40));
    r.nodes.missLatencyHist.sample(latencyBucketOf(1500));

    const JsonValue v = runner::toJson(r, false);
    const JsonValue *fair = v.find("fairness");
    ASSERT_NE(fair, nullptr);
    EXPECT_TRUE(fair->at("arbitration").asBool());
    EXPECT_EQ(fair->at("missLatencyP50").asUInt(), 40u);
    EXPECT_EQ(fair->at("missLatencyP95").asUInt(), 600u);
    EXPECT_EQ(fair->at("missLatencyP99").asUInt(), 1500u);
    EXPECT_EQ(fair->at("maxLineWaitTicks").asUInt(), 9001u);
    EXPECT_EQ(fair->at("queueDepthPeak").asUInt(), 12u);
    EXPECT_EQ(fair->at("missLatencyHist").at("total").asUInt(), 2u);

    // Default-mode, fault-free results must not gain the block, so
    // every pre-existing golden stays byte-identical.
    RunResult clean;
    clean.workload = "w";
    clean.config = "c";
    EXPECT_EQ(runner::toJson(clean, false).find("fairness"), nullptr);
}

TEST(FairnessResults, LatencyPercentilesReadBucketFloors)
{
    Histogram h(256);
    for (int i = 0; i < 99; ++i)
        h.sample(latencyBucketOf(10));
    h.sample(latencyBucketOf(5000));
    EXPECT_EQ(latencyPercentile(h, 0.50),
              latencyBucketFloor(latencyBucketOf(10)));
    EXPECT_EQ(latencyPercentile(h, 0.99),
              latencyBucketFloor(latencyBucketOf(10)));
    EXPECT_EQ(latencyPercentile(h, 1.0),
              latencyBucketFloor(latencyBucketOf(5000)));
    EXPECT_EQ(latencyPercentile(Histogram(256), 0.99), 0u);
}

// --- starvation acceptance ----------------------------------------

namespace
{

runner::JobSet
stormJobs(const std::string &arbitration)
{
    runner::SweepArgs opt; // BENCH_qos defaults: 16 nodes, seed 1
    opt.scenarios = {"storm"};
    opt.arbitrations = {arbitration};
    return runner::findSweep("faults")->jobs(opt);
}

/** Worst maxLineWaitTicks / p99 over the delegation and
 *  delegate-update rows of one arbitration mode's storm sweep. */
void
stormWorstCase(const std::string &arbitration,
               std::uint64_t &max_wait, std::uint64_t &p99,
               std::uint64_t &queue_peak)
{
    runner::RunnerOptions ropts;
    ropts.threads = 4;
    ropts.progress = false;
    max_wait = p99 = queue_peak = 0;
    const auto results = runner::runJobs(stormJobs(arbitration), ropts);
    EXPECT_EQ(results.size(), 3u);
    for (const auto &r : results) {
        ASSERT_TRUE(r.ok) << r.error;
        if (r.job.configName == "base")
            continue; // head-of-line effects: see BENCH_qos.json
        max_wait =
            std::max(max_wait, r.result.nodes.maxLineWaitTicks);
        p99 = std::max(p99, r.result.missLatencyP99);
        queue_peak =
            std::max(queue_peak, r.result.nodes.queueDepthPeak);
    }
}

} // namespace

TEST(Starvation, ParkedArbitrationBoundsWaitThatNackRetryGrows)
{
    // The acceptance criterion, scaled down: the same seeded NACK
    // storm, measured under all three arbitration modes. Pure
    // NACK-and-retry lets a line's worst wait grow with each lost
    // arbitration round; the parked-queue modes bound it, and the
    // per-node p99 miss latency drops with it.
    std::uint64_t nack_wait, nack_p99, nack_peak;
    stormWorstCase("nack-retry", nack_wait, nack_p99, nack_peak);
    EXPECT_GT(nack_wait, 0u);
    EXPECT_EQ(nack_peak, 0u); // no queue exists in this mode

    for (const char *mode : {"queue", "aged-priority"}) {
        std::uint64_t wait, p99, peak;
        stormWorstCase(mode, wait, p99, peak);
        EXPECT_LT(wait, nack_wait) << mode;
        EXPECT_LT(p99, nack_p99) << mode;
        EXPECT_GT(peak, 0u) << mode; // requests actually parked
    }
}

// --- byte identity for the new modes ------------------------------

TEST(ArbitrationIdentity, QueuedModesByteIdenticalAcrossThreads)
{
    runner::SweepArgs opt;
    opt.nodes = {8};
    opt.scale = 0.2;
    opt.seeds = {3};
    opt.scenarios = {"hotspot"};
    opt.arbitrations = {"queue", "aged-priority"};
    const runner::JobSet set = runner::findSweep("faults")->jobs(opt);
    ASSERT_EQ(set.size(), 6u); // 2 modes x 3 mechanism configs

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
