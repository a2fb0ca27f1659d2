/**
 * @file
 * What the committed results documents must hold. The golden_* ctest
 * entries regenerate each document and byte-diff it against the
 * committed file; these tests check that the file itself says what
 * EXPERIMENTS.md and DESIGN.md claim: every run present and ok, and
 * the QoS acceptance inequality.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "src/sim/file_io.hh"
#include "src/sim/json.hh"

using namespace pcsim;

namespace
{

JsonValue
readDoc(const std::string &name)
{
    std::string text;
    const char *err =
        readFile(std::string(PCSIM_SOURCE_DIR) + "/" + name, text);
    EXPECT_FALSE(err) << name << ": " << err;
    return JsonValue::parse(text);
}

/** @p name holds @p runs results, each ok, at schemaVersion 3. */
JsonValue
expectComplete(const std::string &name, std::size_t runs)
{
    JsonValue doc = readDoc(name);
    EXPECT_EQ(doc.at("schemaVersion").asUInt(), 3u) << name;
    const JsonValue &results = doc.at("results");
    EXPECT_EQ(results.size(), runs) << name;
    for (std::size_t i = 0; i < results.size(); ++i)
        EXPECT_TRUE(results.at(i).at("ok").asBool()) << name << " " << i;
    return doc;
}

} // namespace

TEST(CommittedDocs, PaperAndServingReferencesAreComplete)
{
    expectComplete("pcsim-fig7.results.json", 42);
    expectComplete("BENCH_serve.json", 24);
    expectComplete("BENCH_scale.json", 21);
}

TEST(CommittedDocs, PolicyBakeOffCoversEveryPolicy)
{
    const JsonValue doc = expectComplete("BENCH_compare.json", 20);
    std::set<std::string> configs;
    const JsonValue &results = doc.at("results");
    for (std::size_t i = 0; i < results.size(); ++i)
        configs.insert(results.at(i).at("config").asString());
    EXPECT_EQ(configs.size(), 5u);
}

TEST(CommittedDocs, EveryFaultRunCarriesRetryTelemetry)
{
    const JsonValue doc = expectComplete("BENCH_faults.json", 15);
    const JsonValue &results = doc.at("results");
    for (std::size_t i = 0; i < results.size(); ++i)
        EXPECT_TRUE(results.at(i).contains("retry")) << i;
}

TEST(CommittedDocs, QueuedArbitrationBoundsStarvationUnderStorm)
{
    // Under the storm, both queued modes must serve the delegation
    // configs with a strictly lower worst per-line wait and worst-node
    // p99 miss latency than NACK-and-retry, and actually park requests.
    // `base` is left out on purpose: under `queue` its worst-line wait
    // is 13,312 ticks, against 12,424 under NACK-and-retry.
    const JsonValue doc = expectComplete("BENCH_qos.json", 18);
    std::map<std::string, const JsonValue *> rows;
    const JsonValue &results = doc.at("results");
    for (std::size_t i = 0; i < results.size(); ++i)
        rows[results.at(i).at("label").asString()] = &results.at(i);

    for (const std::string cfg : {"delegation", "delegate-update"}) {
        const JsonValue &nack = rows.at("storm/" + cfg)->at("fairness");
        for (const std::string mode : {"queue", "aged-priority"}) {
            const std::string label = "storm/" + mode + "/" + cfg;
            const JsonValue &q = rows.at(label)->at("fairness");
            for (const char *key : {"maxLineWaitTicks", "missLatencyP99"})
                EXPECT_LT(q.at(key).asUInt(), nack.at(key).asUInt())
                    << label << " " << key;
            EXPECT_GT(q.at("queueDepthPeak").asUInt(), 0u) << label;
        }
    }
}
