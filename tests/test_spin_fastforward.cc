/**
 * @file
 * Barrier-spin fast-forward exactness: runs whose barrier spinning is
 * heavy and timing-sensitive must reproduce, node by node, the
 * statistics recorded from a simulator that executed every spin poll
 * as a real event (tests/golden/spin_fastforward.json), on the
 * sequential kernel and on 4 shards.
 *
 * The cases cover what makes fast-forward hard to get exactly right:
 *  - Ocean on "32-entry deledc & 32K RAC" at seed 2, where a resumed
 *    poll that lands one slot off among same-tick events reorders the
 *    master's egress NI and shifts the whole run;
 *  - PCmicro on 64 nodes with the large preset (delegation, updates
 *    and the RAC all fire);
 *  - PCmicro under write-update and adaptive-hybrid, whose spinners
 *    wake on in-place updates rather than invalidations;
 *  - the storm fault scenario and the hotspot scenario under queue
 *    arbitration (checker and conformance hook on).
 *
 * Setting PCSIM_SPIN_GOLDEN_OUT=<path> writes the recorded document
 * from the sequential runs instead of comparing; only do that with a
 * simulator whose results are known to be right.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/runner/faults.hh"
#include "src/runner/job.hh"
#include "src/sim/json.hh"
#include "src/system/presets.hh"
#include "src/system/system.hh"

using namespace pcsim;

namespace
{

/** Every scalar NodeStats counter, serialized or not. */
#define SPIN_NODE_FIELDS(X)                                               \
    X(reads) X(writes) X(l1Hits) X(l2Hits) X(localMisses)                 \
    X(remoteMisses) X(racHits) X(twoHopMisses) X(threeHopMisses)          \
    X(nacksReceived) X(retries) X(mshrConflictRetries)                    \
    X(dirRehandleRetries) X(maxRetriesPerLine) X(nackStormPeak)           \
    X(maxLineWaitTicks) X(queueDepthPeak) X(homeRequests) X(nacksSent)    \
    X(interventionsSent) X(dirCacheHits) X(dirCacheMisses)                \
    X(delegationsGranted) X(delegationsReceived)                          \
    X(undelegationsCapacity) X(undelegationsFlush)                        \
    X(undelegationsConflict) X(forwardedRequests) X(delegatedLocalOps)    \
    X(delayedInterventions) X(updatesSent) X(updatesReceived)             \
    X(updatesConsumed) X(updatesDropped) X(extraWriteMisses)              \
    X(writebacks) X(updateEpisodes) X(updatesApplied) X(adaptiveDrops)

const std::vector<std::string> &
fieldNames()
{
    static const std::vector<std::string> names = {
#define X(f) #f,
        SPIN_NODE_FIELDS(X)
#undef X
    };
    return names;
}

std::vector<std::uint64_t>
fieldValues(const NodeStats &s)
{
    return {
#define X(f) static_cast<std::uint64_t>(s.f),
        SPIN_NODE_FIELDS(X)
#undef X
    };
}

/** One recorded machine run. */
struct Case
{
    std::string name;
    MachineConfig cfg;
    std::string workload;
    double scale = 1.0;
};

/** What a run leaves behind: cycles plus every node's counters. */
struct Observed
{
    std::uint64_t cycles = 0;
    std::vector<std::vector<std::uint64_t>> nodes;
};

MachineConfig
named(const std::vector<presets::NamedConfig> &roster,
      const std::string &name)
{
    for (const auto &c : roster)
        if (c.name == name)
            return c.cfg;
    ADD_FAILURE() << "no configuration named " << name;
    return {};
}

std::vector<Case>
cases()
{
    std::vector<Case> out;

    Case ocean;
    ocean.name = "Ocean/32-entry deledc & 32K RAC/seed 2";
    ocean.cfg = named(presets::figure7Configs(16),
                      "32-entry deledc & 32K RAC");
    ocean.cfg.seed = 2;
    ocean.workload = "Ocean";
    out.push_back(ocean);

    Case large;
    large.name = "PCmicro/large/64 nodes";
    large.cfg = presets::large(64);
    large.workload = "PCmicro";
    out.push_back(large);

    Case wu;
    wu.name = "PCmicro/write-update/16 nodes";
    wu.cfg = presets::writeUpdate(16);
    wu.workload = "PCmicro";
    out.push_back(wu);

    Case ah;
    ah.name = "PCmicro/adaptive-hybrid/16 nodes";
    ah.cfg = presets::adaptiveHybrid(16);
    ah.workload = "PCmicro";
    out.push_back(ah);

    // The fault sweep's own job grid, so the machines match
    // `pcsim faults` / `pcsim qos` rows exactly.
    const auto addFaultJobs = [&out](const std::string &scenario,
                                     const std::string &arbitration) {
        runner::FaultsOptions opt;
        opt.scenarios = {scenario};
        if (!arbitration.empty())
            opt.arbitrations = {arbitration};
        const runner::JobSet set = runner::faultJobs(opt);
        for (const runner::Job &j : set.jobs()) {
            Case c;
            c.name = j.label;
            c.cfg = j.cfg;
            c.cfg.seed = j.seed;
            c.workload = j.workload;
            c.scale = j.scale;
            out.push_back(c);
        }
    };
    addFaultJobs("storm", "");
    addFaultJobs("hotspot", "queue");
    return out;
}

Observed
runCase(const Case &c, unsigned shards)
{
    MachineConfig cfg = c.cfg;
    cfg.shards = shards;
    std::unique_ptr<Workload> wl = runner::makeRunnerWorkload(
        c.workload, cfg.proto.numNodes, c.scale);
    System sys(cfg);
    const RunResult r = sys.run(*wl);
    Observed o;
    o.cycles = r.cycles;
    for (unsigned n = 0; n < sys.numNodes(); ++n)
        o.nodes.push_back(fieldValues(sys.hub(n).stats()));
    return o;
}

std::string
goldenPath()
{
    return std::string(PCSIM_SOURCE_DIR) +
           "/tests/golden/spin_fastforward.json";
}

/** One line per node keeps the document diffable. */
void
writeGolden(const std::string &path, const std::vector<Case> &all,
            const std::vector<Observed> &obs)
{
    std::ostringstream out;
    out << "{\n  \"fields\": [";
    for (std::size_t i = 0; i < fieldNames().size(); ++i)
        out << (i ? ", " : "") << '"' << fieldNames()[i] << '"';
    out << "],\n  \"cases\": [\n";
    for (std::size_t c = 0; c < all.size(); ++c) {
        out << "    {\"name\": \"" << JsonValue::escape(all[c].name)
            << "\", \"cycles\": " << obs[c].cycles
            << ", \"nodes\": [\n";
        for (std::size_t n = 0; n < obs[c].nodes.size(); ++n) {
            out << "      [";
            for (std::size_t f = 0; f < obs[c].nodes[n].size(); ++f)
                out << (f ? "," : "") << obs[c].nodes[n][f];
            out << (n + 1 < obs[c].nodes.size() ? "],\n" : "]\n");
        }
        out << (c + 1 < all.size() ? "    ]},\n" : "    ]}\n");
    }
    out << "  ]\n}\n";
    std::ofstream(path) << out.str();
}

JsonValue
readGolden()
{
    std::ifstream in(goldenPath());
    std::stringstream ss;
    ss << in.rdbuf();
    return JsonValue::parse(ss.str());
}

void
expectMatches(const JsonValue &rec, const Observed &got,
              const std::string &what)
{
    EXPECT_EQ(rec.at("cycles").asUInt(), got.cycles) << what;
    const JsonValue &nodes = rec.at("nodes");
    ASSERT_EQ(nodes.size(), got.nodes.size()) << what;
    for (std::size_t n = 0; n < got.nodes.size(); ++n) {
        const JsonValue &row = nodes.at(n);
        ASSERT_EQ(row.size(), fieldNames().size()) << what;
        for (std::size_t f = 0; f < fieldNames().size(); ++f) {
            EXPECT_EQ(row.at(f).asUInt(), got.nodes[n][f])
                << what << ": node " << n << " " << fieldNames()[f];
        }
    }
}

} // namespace

TEST(SpinFastForward, NodeStatsMatchRecordedPollingRuns)
{
    const std::vector<Case> all = cases();

    if (const char *out = std::getenv("PCSIM_SPIN_GOLDEN_OUT")) {
        std::vector<Observed> obs;
        for (const Case &c : all)
            obs.push_back(runCase(c, 1));
        writeGolden(out, all, obs);
        GTEST_SKIP() << "wrote " << out;
    }

    const JsonValue doc = readGolden();
    const JsonValue &fields = doc.at("fields");
    ASSERT_EQ(fields.size(), fieldNames().size());
    for (std::size_t f = 0; f < fieldNames().size(); ++f)
        ASSERT_EQ(fields.at(f).asString(), fieldNames()[f]);
    const JsonValue &recorded = doc.at("cases");
    ASSERT_EQ(recorded.size(), all.size());

    for (std::size_t c = 0; c < all.size(); ++c) {
        const JsonValue &rec = recorded.at(c);
        ASSERT_EQ(rec.at("name").asString(), all[c].name);
        for (unsigned shards : {1u, 4u}) {
            expectMatches(rec, runCase(all[c], shards),
                          all[c].name + " @ " + std::to_string(shards) +
                              " shard(s)");
        }
    }
}
