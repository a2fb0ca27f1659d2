/**
 * @file
 * Figure 8's equal-area L2 at system level: the seven applications on
 * 16 nodes under Base-1M (1 MB L2, 2048 sets) and Equal-1.04M (the L2
 * grown by the SRAM a 32-entry delegate cache and a 32 KB RAC take:
 * 2128 sets). Equal-1.04M is the one configuration whose
 * set count is not a power of two, so it is the only run of the
 * cache array's modulo indexing path; every other array indexes by
 * mask. The per-node statistics and cycles of all 14 runs must
 * reproduce tests/golden/fig8_equal_area.json byte for byte.
 *
 * Setting PCSIM_FIG8_GOLDEN_OUT=<path> writes the document instead of
 * comparing; only do that with a simulator whose results are known to
 * be right.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "node_stats_doc.hh"
#include "src/system/presets.hh"
#include "src/system/system.hh"
#include "src/workload/suite.hh"

using namespace pcsim;
using namespace pcsim::golden;

namespace
{

constexpr double appScale = 0.5;

/** Base-1M, and Equal-1.04M when @p equal_area. */
MachineConfig
figure8Config(bool equal_area)
{
    MachineConfig m = presets::base(16);
    m.proto.l2SizeBytes = 1024 * 1024;
    if (equal_area) {
        // 1 MB + 40 KB of SRAM at 4 ways x 128 B lines.
        m.proto.l2SetsOverride = (1024 * 1024 + 40 * 1024) / (4 * 128);
    }
    return m;
}

std::string
goldenPath()
{
    return std::string(PCSIM_SOURCE_DIR) +
           "/tests/golden/fig8_equal_area.json";
}

std::vector<std::string>
lines(const std::string &text)
{
    std::vector<std::string> out;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);)
        out.push_back(line);
    return out;
}

} // namespace

TEST(Fig8EqualArea, NodeStatsMatchGolden)
{
    const ProtocolConfig base = figure8Config(false).proto;
    ASSERT_EQ(base.l2SizeBytes / (base.l2Ways * base.lineBytes), 2048u);
    ASSERT_EQ(figure8Config(true).proto.l2SetsOverride, 2128u);

    std::vector<std::string> names;
    std::vector<Observed> obs;
    for (const std::string &app : suiteNames()) {
        for (bool equal_area : {false, true}) {
            std::unique_ptr<Workload> wl =
                makeWorkload(app, 16, appScale);
            System sys(figure8Config(equal_area));
            const RunResult r = sys.run(*wl);
            names.push_back(app + (equal_area ? "/Equal-1.04M"
                                              : "/Base-1M"));
            obs.push_back(observe(sys, r));
        }
    }
    ASSERT_EQ(names.size(), 14u);
    const std::string doc = nodeStatsDoc(names, obs);

    if (const char *out = std::getenv("PCSIM_FIG8_GOLDEN_OUT")) {
        std::ofstream(out) << doc;
        GTEST_SKIP() << "wrote " << out;
    }

    std::ifstream in(goldenPath());
    ASSERT_TRUE(in) << "cannot read " << goldenPath();
    std::stringstream golden;
    golden << in.rdbuf();

    // Point at the first differing line rather than dumping both.
    const std::vector<std::string> want = lines(golden.str());
    const std::vector<std::string> got = lines(doc);
    for (std::size_t i = 0; i < want.size() && i < got.size(); ++i)
        ASSERT_EQ(got[i], want[i]) << "first difference at line " << i + 1;
    EXPECT_EQ(got.size(), want.size());
    EXPECT_TRUE(doc == golden.str());
}
