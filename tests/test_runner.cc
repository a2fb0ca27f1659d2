/**
 * @file
 * Experiment runner: pool determinism, result ordering, failure
 * isolation and the workload/config registries.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "src/runner/job.hh"
#include "src/runner/results.hh"
#include "src/runner/runner.hh"
#include "src/runner/sweeps.hh"
#include "src/workload/micro.hh"
#include "src/workload/suite.hh"

using namespace pcsim;
using namespace pcsim::runner;

namespace
{

/** A small 4-node job mix: two micro patterns x two configurations. */
JobSet
smallJobSet()
{
    JobSet set;
    for (const char *workload : {"PCmicro", "Random"}) {
        for (const char *config : {"base", "small"}) {
            Job j;
            j.workload = workload;
            std::string canonical;
            EXPECT_TRUE(namedMachineConfig(config, 4, j.cfg,
                                           canonical));
            j.configName = canonical;
            j.cfg.proto.checkerEnabled = false;
            j.seed = 7;
            set.add(std::move(j));
        }
    }
    EXPECT_EQ(set.size(), 4u);
    return set;
}

RunnerOptions
quiet(unsigned threads)
{
    RunnerOptions o;
    o.threads = threads;
    o.progress = false;
    return o;
}

} // namespace

TEST(Runner, PoolMatchesSerialByteForByte)
{
    const JobSet set = smallJobSet();

    const auto serial = runJobs(set, quiet(1));
    const auto pooled = runJobs(set, quiet(4));

    ASSERT_EQ(serial.size(), 4u);
    ASSERT_EQ(pooled.size(), 4u);
    for (const auto &r : serial)
        EXPECT_TRUE(r.ok) << r.error;
    for (const auto &r : pooled)
        EXPECT_TRUE(r.ok) << r.error;

    // The serialized documents -- the unit the determinism check and
    // downstream consumers operate on -- must be byte-identical.
    // Serialize without host timing: wall-clock rates legitimately
    // differ between runs (schemaVersion 2 perf telemetry).
    EXPECT_EQ(resultsToJson(serial, /*with_timing=*/false).dump(2),
              resultsToJson(pooled, /*with_timing=*/false).dump(2));
    EXPECT_EQ(resultsToCsv(serial, /*with_timing=*/false),
              resultsToCsv(pooled, /*with_timing=*/false));
}

TEST(Runner, ResultsComeBackInJobOrder)
{
    const JobSet set = smallJobSet();
    const auto results = runJobs(set, quiet(4));
    ASSERT_EQ(results.size(), set.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].job.label, set.jobs()[i].label);
        EXPECT_EQ(results[i].result.workload,
                  i < 2 ? "PCmicro" : "Random");
    }
}

TEST(Runner, SeedChangesRandomWorkloadOutcome)
{
    JobSet a, b;
    Job j;
    j.workload = "Random";
    j.cfg = presets::base(4);
    j.cfg.proto.checkerEnabled = false;
    j.configName = "base";
    j.seed = 1;
    a.add(j);
    j.seed = 2;
    b.add(j);

    const auto ra = runJobs(a, quiet(1));
    const auto rb = runJobs(b, quiet(1));
    ASSERT_TRUE(ra[0].ok && rb[0].ok);
    // Different machine seeds give different NACK/backoff jitter, so
    // the cycle counts should differ; identical seeds must not.
    const auto ra2 = runJobs(a, quiet(1));
    EXPECT_EQ(ra[0].result.cycles, ra2[0].result.cycles);
    EXPECT_NE(ra[0].result.cycles, rb[0].result.cycles);
}

TEST(Runner, ThrowingJobIsReportedFailedWithoutStallingPool)
{
    JobSet set = smallJobSet();

    Job bad;
    bad.workload = "PCmicro";
    bad.cfg = presets::base(4);
    bad.configName = "base";
    bad.label = "boom";
    bad.factory = []() -> std::unique_ptr<Workload> {
        throw std::runtime_error("synthetic workload failure");
    };
    // Insert in the middle so the pool has work before and after.
    set.jobs().insert(set.jobs().begin() + 2, bad);

    const auto results = runJobs(set, quiet(4));
    ASSERT_EQ(results.size(), 5u);
    EXPECT_FALSE(results[2].ok);
    EXPECT_EQ(results[2].error, "synthetic workload failure");
    EXPECT_EQ(results[2].job.label, "boom");
    for (std::size_t i : {0u, 1u, 3u, 4u})
        EXPECT_TRUE(results[i].ok) << i << ": " << results[i].error;

    // Failed jobs serialize as ok=false with zeroed statistics.
    const JsonValue doc = resultsToJson(results);
    const JsonValue &entry = doc.at("results").at(2);
    EXPECT_FALSE(entry.at("ok").asBool());
    EXPECT_EQ(entry.at("error").asString(),
              "synthetic workload failure");
    EXPECT_EQ(entry.at("cycles").asUInt(), 0u);
}

TEST(Runner, UnknownWorkloadFailsTheJobNotTheProcess)
{
    JobSet set;
    Job j;
    j.workload = "no-such-benchmark";
    j.cfg = presets::base(4);
    set.add(std::move(j));

    const auto results = runJobs(set, quiet(2));
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_NE(results[0].error.find("no-such-benchmark"),
              std::string::npos);
}

TEST(Runner, ScaleBeyondAnIterationCountFailsTheJob)
{
    // Both registries: the micro and serving patterns, and the suite
    // the runner delegates to.
    JobSet set;
    for (const char *workload : {"micro", "kvserve", "em3d"}) {
        Job j;
        j.workload = canonicalWorkload(workload);
        j.cfg = presets::base(4);
        j.scale = 1e300;
        set.add(std::move(j));
    }
    const auto results = runJobs(set, quiet(1));
    ASSERT_EQ(results.size(), 3u);
    for (const JobResult &r : results) {
        EXPECT_FALSE(r.ok) << r.job.workload;
        EXPECT_EQ(r.error, "workload '" + r.job.workload +
                               "' cannot run at scale 1e+300: its "
                               "scaled count is outside 0..4294967295");
    }

    // table2 builds the suite outside any job and fails the same way.
    SweepArgs args;
    args.scale = 1e300;
    EXPECT_EQ(runSweep(*findSweep("table2"), args), 2);
}

TEST(Runner, WorkloadRegistryCanonicalizes)
{
    EXPECT_EQ(canonicalWorkload("em3d"), "Em3D");
    EXPECT_EQ(canonicalWorkload("EM3D"), "Em3D");
    EXPECT_EQ(canonicalWorkload("micro"), "PCmicro");
    EXPECT_EQ(canonicalWorkload("lu"), "LU");
    EXPECT_EQ(canonicalWorkload("bogus"), "");
    EXPECT_THROW(makeWorkload("bogus", 4), std::invalid_argument);

    auto wl = makeWorkload("random", 4, 0.25);
    ASSERT_NE(wl, nullptr);
    EXPECT_EQ(wl->numCpus(), 4u);
}

TEST(Runner, ConfigRegistryLooksUpPresetsAndAliases)
{
    MachineConfig cfg;
    std::string canonical;

    ASSERT_TRUE(namedMachineConfig("pcopt", 16, cfg, canonical));
    EXPECT_EQ(canonical, "small");
    EXPECT_TRUE(cfg.proto.delegationEnabled());
    EXPECT_TRUE(cfg.proto.updatesEnabled());
    EXPECT_TRUE(cfg.proto.racEnabled);

    ASSERT_TRUE(namedMachineConfig("BASE", 8, cfg, canonical));
    EXPECT_EQ(canonical, "base");
    EXPECT_EQ(cfg.proto.numNodes, 8u);
    EXPECT_FALSE(cfg.proto.racEnabled);

    ASSERT_TRUE(namedMachineConfig("delegation", 16, cfg, canonical));
    EXPECT_TRUE(cfg.proto.delegationEnabled());
    EXPECT_FALSE(cfg.proto.updatesEnabled());

    EXPECT_FALSE(namedMachineConfig("warp-drive", 16, cfg, canonical));
}

TEST(Runner, SweepBuildsCartesianProductInOrder)
{
    JobSet set;
    set.sweep({"Em3D", "LU"}, presets::figure7Configs(16), 0.5,
              {1, 2});
    ASSERT_EQ(set.size(), 2u * 6u * 2u);
    // workload-major, then config, then seed.
    EXPECT_EQ(set.jobs()[0].workload, "Em3D");
    EXPECT_EQ(set.jobs()[0].seed, 1u);
    EXPECT_EQ(set.jobs()[1].seed, 2u);
    EXPECT_EQ(set.jobs()[2].configName, "32K RAC");
    EXPECT_EQ(set.jobs()[12].workload, "LU");
    for (const auto &j : set.jobs())
        EXPECT_DOUBLE_EQ(j.scale, 0.5);
}

TEST(Runner, ResultEntryCarriesJobAndRun)
{
    const auto results = runJobs(smallJobSet(), quiet(2));
    const JsonValue doc = resultsToJson(results);
    // Job order: PCmicro/base, PCmicro/small, ...
    const JsonValue &e = doc.at("results").at(1);
    EXPECT_EQ(e.at("config").asString(), "small");
    EXPECT_TRUE(e.at("ok").asBool());
    EXPECT_EQ(e.at("workload").asString(), "PCmicro");
    EXPECT_GT(e.at("cycles").asUInt(), 0u);
    EXPECT_EQ(e.at("cycles").asUInt(), results[1].result.cycles);
}

TEST(Runner, BuildJobAppliesTheRequest)
{
    JobRequest r;
    r.workload = "em3d";
    r.config = "pcopt";
    r.nodes = 32;
    r.seed = 3;
    r.scale = 0.5;
    r.coarse = 4;
    r.checker = true;
    Job j;
    ASSERT_EQ(buildJob(r, j), "");
    EXPECT_EQ(j.workload, "Em3D");
    EXPECT_EQ(j.configName, "small");
    EXPECT_EQ(j.seed, 3u);
    EXPECT_EQ(j.scale, 0.5);
    EXPECT_EQ(j.cfg.proto.numNodes, 32u);
    EXPECT_EQ(j.cfg.proto.lineBytes, 128u);
    EXPECT_EQ(j.cfg.proto.sharerGranularityLog2, 2u);
    EXPECT_TRUE(j.cfg.proto.checkerEnabled);
    EXPECT_FALSE(j.cfg.proto.conformanceEnabled);

    // The checker is off unless asked for, whatever ProtocolConfig's
    // default.
    r.checker = false;
    ASSERT_EQ(buildJob(r, j), "");
    EXPECT_FALSE(j.cfg.proto.checkerEnabled);

    const auto error = [&](JobRequest bad) {
        Job unused;
        return buildJob(bad, unused);
    };
    JobRequest bad = r;
    bad.workload = "bogus";
    EXPECT_EQ(error(bad), "unknown workload 'bogus'");
    bad = r;
    bad.config = "warp-drive";
    EXPECT_EQ(error(bad), "unknown config 'warp-drive'");
    bad = r;
    bad.coarse = 3;
    EXPECT_EQ(error(bad), "coarse 3 is not a power of two");
    bad = r;
    bad.coarse = 64;
    EXPECT_EQ(error(bad).rfind("invalid configuration 'small' at 32 nodes: "
                               "sharerGranularityLog2",
                               0),
              0u);
}

TEST(Runner, AppbtGridMismatchFailsItsJobNotTheProcess)
{
    JobSet set;
    for (const char *workload : {"Appbt", "Em3D"}) {
        Job j;
        j.workload = workload;
        j.cfg = presets::base(12);
        j.cfg.proto.checkerEnabled = false;
        j.configName = "base";
        j.scale = 0.1;
        set.add(std::move(j));
    }
    const auto results = runJobs(set, quiet(2));
    ASSERT_EQ(results.size(), 2u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_EQ(results[0].error,
              "Appbt processor grid 4x2x2 does not match 12 CPUs");
    EXPECT_TRUE(results[1].ok) << results[1].error;
}
