/**
 * @file
 * JSON writer/parser and RunResult serialization.
 */

#include <gtest/gtest.h>

#include <string>

#include "src/runner/results.hh"
#include "src/sim/json.hh"
#include "src/system/system.hh"

using namespace pcsim;

namespace
{

/** JsonValue::parse's error for @p text, or "parsed". */
std::string
parseError(const std::string &text)
{
    try {
        JsonValue::parse(text);
    } catch (const JsonParseError &e) {
        return e.what();
    }
    return "parsed";
}

} // namespace

TEST(Json, ScalarDump)
{
    EXPECT_EQ(JsonValue().dump(), "null");
    EXPECT_EQ(JsonValue(true).dump(), "true");
    EXPECT_EQ(JsonValue(false).dump(), "false");
    EXPECT_EQ(JsonValue(std::uint64_t(0)).dump(), "0");
    EXPECT_EQ(JsonValue(std::uint64_t(18446744073709551615ull)).dump(),
              "18446744073709551615");
    EXPECT_EQ(JsonValue(1.5).dump(), "1.5");
    EXPECT_EQ(JsonValue("hi").dump(), "\"hi\"");
}

TEST(Json, ObjectPreservesInsertionOrder)
{
    JsonValue v = JsonValue::object();
    v["zebra"] = JsonValue(std::uint64_t(1));
    v["apple"] = JsonValue(std::uint64_t(2));
    v["mango"] = JsonValue(std::uint64_t(3));
    EXPECT_EQ(v.dump(), "{\"zebra\":1,\"apple\":2,\"mango\":3}");
    // Re-assignment updates in place, does not reorder.
    v["zebra"] = JsonValue(std::uint64_t(9));
    EXPECT_EQ(v.dump(), "{\"zebra\":9,\"apple\":2,\"mango\":3}");
}

TEST(Json, EscapesSpecialCharacters)
{
    const std::string nasty =
        "quote:\" backslash:\\ newline:\n tab:\t bell:\x07 cr:\r";
    const std::string dumped = JsonValue(nasty).dump();
    // No raw control characters or unescaped quotes inside the
    // literal.
    for (std::size_t i = 1; i + 1 < dumped.size(); ++i) {
        EXPECT_GE(static_cast<unsigned char>(dumped[i]), 0x20u)
            << "raw control character at " << i;
    }
    EXPECT_NE(dumped.find("\\\""), std::string::npos);
    EXPECT_NE(dumped.find("\\\\"), std::string::npos);
    EXPECT_NE(dumped.find("\\n"), std::string::npos);
    EXPECT_NE(dumped.find("\\t"), std::string::npos);
    EXPECT_NE(dumped.find("\\u0007"), std::string::npos);

    // And it parses back to the exact original bytes.
    EXPECT_EQ(JsonValue::parse(dumped).asString(), nasty);
}

TEST(Json, ParseRoundTripsNestedDocument)
{
    JsonValue doc = JsonValue::object();
    doc["name"] = JsonValue("pcsim \"quoted\"\n");
    doc["count"] = JsonValue(std::uint64_t(1234567890123ull));
    doc["ratio"] = JsonValue(0.125);
    doc["flag"] = JsonValue(true);
    doc["nothing"] = JsonValue();
    JsonValue arr = JsonValue::array();
    arr.push(JsonValue(std::uint64_t(1)));
    arr.push(JsonValue("two"));
    JsonValue inner = JsonValue::object();
    inner["k"] = JsonValue(3.5);
    arr.push(std::move(inner));
    doc["items"] = std::move(arr);

    for (int indent : {-1, 0, 2, 4}) {
        const std::string text = doc.dump(indent);
        JsonValue parsed = JsonValue::parse(text);
        // Parsing then re-dumping compact must be stable.
        EXPECT_EQ(parsed.dump(), doc.dump()) << "indent " << indent;
    }
}

TEST(Json, ParseAcceptsWhitespaceAndUnicodeEscapes)
{
    JsonValue v = JsonValue::parse(
        "  { \"a\" : [ 1 , 2.5 , \"\\u0041\\u00e9\" ] }  ");
    EXPECT_EQ(v.at("a").at(std::size_t(0)).asUInt(), 1u);
    EXPECT_DOUBLE_EQ(v.at("a").at(1).asDouble(), 2.5);
    EXPECT_EQ(v.at("a").at(2).asString(), "A\xc3\xa9");
}

TEST(Json, ParseRejectsMalformedInput)
{
    EXPECT_THROW(JsonValue::parse(""), JsonParseError);
    EXPECT_THROW(JsonValue::parse("{"), JsonParseError);
    EXPECT_THROW(JsonValue::parse("[1,]"), JsonParseError);
    EXPECT_THROW(JsonValue::parse("{\"a\":1} trailing"),
                 JsonParseError);
    EXPECT_THROW(JsonValue::parse("\"unterminated"), JsonParseError);
    EXPECT_THROW(JsonValue::parse("nul"), JsonParseError);
    EXPECT_THROW(JsonValue::parse("01x"), JsonParseError);
    // Errors after a member or an element sit at the offending byte:
    // the end of a cut document, or a bad separator.
    EXPECT_EQ(parseError("[1"), "unexpected end of input at offset 2");
    EXPECT_EQ(parseError("{\"a\":1"),
              "unexpected end of input at offset 6");
    EXPECT_EQ(parseError("[1x]"),
              "expected ',' or ']' in array at offset 2");
    EXPECT_EQ(parseError("{\"a\":1 x}"),
              "expected ',' or '}' in object at offset 7");
}

TEST(Json, ParseBoundsNestingDepth)
{
    const unsigned max = JsonValue::maxParseDepth;
    const JsonValue deepest = JsonValue::parse(std::string(max, '[') +
                                               std::string(max, ']'));
    EXPECT_TRUE(deepest.isArray());

    // The bracket that opens one level more is the offending offset,
    // for arrays and objects alike, however long the input.
    EXPECT_EQ(parseError(std::string(1 << 20, '[')),
              "nesting deeper than 256 levels at offset 256");
    std::string objects;
    for (unsigned i = 0; i <= max; ++i)
        objects += "{\"k\":";
    EXPECT_EQ(parseError(objects),
              "nesting deeper than 256 levels at offset 1280");
}

namespace
{

/** A RunResult with every field set to a distinctive value. */
RunResult
sampleResult()
{
    RunResult r;
    r.workload = "Em3D \"scaled\"";
    r.config = "small,with comma";
    r.cycles = 123456789012ull;
    r.netMessages = 1001;
    r.netBytes = 128128;
    r.nackMessages = 17;
    r.updateMessages = 42;

    r.nodes.reads = 1;
    r.nodes.writes = 2;
    r.nodes.l1Hits = 3;
    r.nodes.l2Hits = 4;
    r.nodes.localMisses = 5;
    r.nodes.remoteMisses = 6;
    r.nodes.racHits = 7;
    r.nodes.twoHopMisses = 8;
    r.nodes.threeHopMisses = 9;
    r.nodes.nacksReceived = 10;
    r.nodes.retries = 11;
    r.nodes.homeRequests = 12;
    r.nodes.nacksSent = 13;
    r.nodes.interventionsSent = 14;
    r.nodes.dirCacheHits = 15;
    r.nodes.dirCacheMisses = 16;
    r.nodes.delegationsGranted = 17;
    r.nodes.delegationsReceived = 18;
    r.nodes.undelegationsCapacity = 19;
    r.nodes.undelegationsFlush = 20;
    r.nodes.undelegationsConflict = 21;
    r.nodes.forwardedRequests = 22;
    r.nodes.delegatedLocalOps = 23;
    r.nodes.delayedInterventions = 24;
    r.nodes.updatesSent = 25;
    r.nodes.updatesReceived = 26;
    r.nodes.updatesConsumed = 27;
    r.nodes.updatesDropped = 28;
    r.nodes.extraWriteMisses = 29;
    r.nodes.writebacks = 30;

    for (std::size_t i = 0; i < 17; ++i)
        for (std::size_t n = 0; n < i * 3 + 1; ++n)
            r.consumerHist.sample(i);
    return r;
}

} // namespace

TEST(Json, RunResultSerializesEveryField)
{
    const RunResult r = sampleResult();
    const std::string text = runner::toJson(r).dump(2);
    const JsonValue v = JsonValue::parse(text);

    EXPECT_EQ(v.at("workload").asString(), r.workload);
    EXPECT_EQ(v.at("config").asString(), r.config);
    EXPECT_EQ(v.at("cycles").asUInt(), r.cycles);
    EXPECT_EQ(v.at("netMessages").asUInt(), r.netMessages);
    EXPECT_EQ(v.at("netBytes").asUInt(), r.netBytes);
    EXPECT_EQ(v.at("nackMessages").asUInt(), r.nackMessages);
    EXPECT_EQ(v.at("updateMessages").asUInt(), r.updateMessages);

    // sampleResult() numbers the 30 NodeStats counters 1..30 in
    // declaration order, which is the serialized order.
    const auto &nodes = v.at("nodes").members();
    ASSERT_EQ(nodes.size(), 30u);
    for (std::size_t i = 0; i < nodes.size(); ++i)
        EXPECT_EQ(nodes[i].second.asUInt(), i + 1) << nodes[i].first;
    EXPECT_EQ(v.at("nodes").at("reads").asUInt(), r.nodes.reads);
    EXPECT_EQ(v.at("nodes").at("writebacks").asUInt(), r.nodes.writebacks);

    const JsonValue &hist = v.at("consumerHist");
    EXPECT_EQ(hist.at("total").asUInt(), r.consumerHist.total());
    const JsonValue &buckets = hist.at("buckets");
    ASSERT_EQ(buckets.size(), r.consumerHist.numBuckets());
    for (std::size_t i = 0; i < buckets.size(); ++i)
        EXPECT_EQ(buckets.at(i).asUInt(), r.consumerHist.bucket(i))
            << "bucket " << i;

    // The parsed document re-serializes byte-identically.
    EXPECT_EQ(v.dump(2), text);
}

TEST(Json, CsvEscapesAndRoundTripStructure)
{
    runner::JobResult jr;
    jr.job.workload = "Em3D";
    jr.job.configName = "has,comma";
    jr.job.label = "with \"quotes\"";
    jr.job.seed = 7;
    jr.ok = true;
    jr.result = sampleResult();

    const std::string csv = runner::resultsToCsv({jr});
    // Header + one row.
    const std::size_t newline = csv.find('\n');
    ASSERT_NE(newline, std::string::npos);
    EXPECT_EQ(csv.find('\n', newline + 1), csv.size() - 1);
    // Quoted fields survive.
    EXPECT_NE(csv.find("\"has,comma\""), std::string::npos);
    EXPECT_NE(csv.find("\"with \"\"quotes\"\"\""), std::string::npos);
    // Header and row have the same column count (commas outside
    // quotes).
    const auto cols = [](const std::string &line) {
        std::size_t n = 1;
        bool quoted = false;
        for (char c : line) {
            if (c == '"')
                quoted = !quoted;
            else if (c == ',' && !quoted)
                ++n;
        }
        return n;
    };
    const std::string head = csv.substr(0, newline);
    const std::string row =
        csv.substr(newline + 1, csv.size() - newline - 2);
    EXPECT_EQ(cols(head), cols(row));
}
