/**
 * @file
 * Barrier-spin fast-forward exactness: runs whose barrier spinning is
 * heavy and timing-sensitive must reproduce, node by node, the
 * statistics recorded from a simulator that executed every spin poll
 * as a real event (tests/golden/spin_fastforward.json).
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
 * instead of comparing; only do that with a simulator whose results
 * are known to be right.
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

#include "src/runner/job.hh"
#include "src/runner/sweeps.hh"
#include "src/sim/json.hh"
#include "src/system/presets.hh"
#include "src/system/system.hh"
#include "src/workload/suite.hh"
#include "node_stats_doc.hh"

using namespace pcsim;
using namespace pcsim::golden;

namespace
{

/** One recorded machine run. */
struct Case
{
    std::string name;
    MachineConfig cfg;
    std::string workload;
    double scale = 1.0;
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
        runner::SweepArgs opt;
        opt.scenarios = {scenario};
        if (!arbitration.empty())
            opt.arbitrations = {arbitration};
        const runner::JobSet set = runner::findSweep("faults")->jobs(opt);
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
runCase(const Case &c)
{
    std::unique_ptr<Workload> wl =
        makeWorkload(c.workload, c.cfg.proto.numNodes, c.scale);
    System sys(c.cfg);
    const RunResult r = sys.run(*wl);
    return observe(sys, r);
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
    std::vector<std::string> names;
    for (const Case &c : all)
        names.push_back(c.name);
    std::ofstream(path) << nodeStatsDoc(names, obs);
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
        ASSERT_EQ(row.size(), std::size(nodeCounters)) << what;
        for (std::size_t f = 0; f < std::size(nodeCounters); ++f) {
            EXPECT_EQ(row.at(f).asUInt(), got.nodes[n][f])
                << what << ": node " << n << " " << nodeCounters[f].name;
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
            obs.push_back(runCase(c));
        writeGolden(out, all, obs);
        GTEST_SKIP() << "wrote " << out;
    }

    const JsonValue doc = readGolden();
    const JsonValue &fields = doc.at("fields");
    ASSERT_EQ(fields.size(), std::size(nodeCounters));
    for (std::size_t f = 0; f < std::size(nodeCounters); ++f)
        ASSERT_EQ(fields.at(f).asString(), nodeCounters[f].name);
    const JsonValue &recorded = doc.at("cases");
    ASSERT_EQ(recorded.size(), all.size());

    for (std::size_t c = 0; c < all.size(); ++c) {
        const JsonValue &rec = recorded.at(c);
        ASSERT_EQ(rec.at("name").asString(), all[c].name);
        expectMatches(rec, runCase(all[c]), all[c].name);
    }
}
