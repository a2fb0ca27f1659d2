/** @file Trace subsystem tests: PCTR binary round-trips, malformed
 *  input rejection with precise errors, the replay job a header names,
 *  record-then-replay byte-identical statistics, and the external
 *  text-trace ingester against committed golden files. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "src/protocol/config.hh"
#include "src/runner/results.hh"
#include "src/runner/trace_cmd.hh"
#include "src/system/presets.hh"
#include "src/system/system.hh"
#include "src/trace/format.hh"
#include "src/trace/replay.hh"
#include "src/trace/text_ingest.hh"
#include "src/workload/micro.hh"
#include "src/workload/serving.hh"

using namespace pcsim;

namespace
{

trace::TraceMeta
sampleMeta()
{
    trace::TraceMeta meta;
    meta.nodeCount = 3;
    meta.lineBytes = 128;
    meta.coarse = 2;
    meta.seed = 42;
    meta.scale = 0.5;
    meta.workload = "PCmicro";
    meta.config = "small";
    return meta;
}

std::vector<std::vector<MemOp>>
sampleStreams()
{
    std::vector<std::vector<MemOp>> per(3);
    per[0] = {MemOp::write(0x1000), MemOp::barrier(),
              MemOp::read(0x1080)};
    per[1] = {MemOp::barrier(), MemOp::think(7)};
    per[2] = {MemOp::barrier()};
    return per;
}

std::string
readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    std::string out;
    char buf[4096];
    std::size_t n;
    while (f && (n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    if (f)
        std::fclose(f);
    return out;
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
              bytes.size());
    std::fclose(f);
}

/** Expect decodeTrace to throw a TraceError whose message contains
 *  @p needle. */
void
expectDecodeError(const std::string &bytes, const std::string &needle)
{
    try {
        trace::decodeTrace(bytes, "<memory>");
        FAIL() << "decode accepted malformed input (wanted error "
                  "containing '"
               << needle << "')";
    } catch (const trace::TraceError &e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << "error was: " << e.what();
    }
}

} // namespace

TEST(TraceFormat, RoundTripPreservesEverything)
{
    const trace::TraceMeta meta = sampleMeta();
    const auto streams = sampleStreams();
    const std::string bytes = trace::encodeTrace(meta, streams);
    const trace::TraceData back = trace::decodeTrace(bytes, "<memory>");

    EXPECT_EQ(back.meta.nodeCount, meta.nodeCount);
    EXPECT_EQ(back.meta.lineBytes, meta.lineBytes);
    EXPECT_EQ(back.meta.coarse, meta.coarse);
    EXPECT_EQ(back.meta.seed, meta.seed);
    EXPECT_EQ(back.meta.scale, meta.scale);
    EXPECT_EQ(back.meta.workload, meta.workload);
    EXPECT_EQ(back.meta.config, meta.config);
    EXPECT_EQ(back.meta.opCount, 6u);
    ASSERT_EQ(back.perNode.size(), streams.size());
    for (std::size_t n = 0; n < streams.size(); ++n) {
        ASSERT_EQ(back.perNode[n].size(), streams[n].size()) << n;
        for (std::size_t i = 0; i < streams[n].size(); ++i) {
            EXPECT_EQ(back.perNode[n][i].kind, streams[n][i].kind);
            EXPECT_EQ(back.perNode[n][i].addr(), streams[n][i].addr());
            EXPECT_EQ(back.perNode[n][i].cycles(),
                      streams[n][i].cycles());
        }
    }
}

TEST(TraceFormat, RoundTripsThePayloadLimits)
{
    trace::TraceMeta meta = sampleMeta();
    meta.nodeCount = 1;
    const std::vector<std::vector<MemOp>> streams = {
        {MemOp::read(MemOp::maxAddr), MemOp::write(MemOp::maxAddr),
         MemOp::think(0xFFFFFFFFu)}};
    const trace::TraceData back = trace::decodeTrace(
        trace::encodeTrace(meta, streams), "<memory>");
    ASSERT_EQ(back.perNode.at(0).size(), 3u);
    EXPECT_EQ(back.perNode[0][0].kind, MemOp::Kind::Read);
    EXPECT_EQ(back.perNode[0][0].addr(), (Addr{1} << 56) - 1);
    EXPECT_EQ(back.perNode[0][1].kind, MemOp::Kind::Write);
    EXPECT_EQ(back.perNode[0][1].addr(), (Addr{1} << 56) - 1);
    EXPECT_EQ(back.perNode[0][2].kind, MemOp::Kind::Think);
    EXPECT_EQ(back.perNode[0][2].cycles(), 0xFFFFFFFFu);
}

TEST(TraceFormat, EncodingIsDeterministic)
{
    const std::string a =
        trace::encodeTrace(sampleMeta(), sampleStreams());
    const std::string b =
        trace::encodeTrace(sampleMeta(), sampleStreams());
    EXPECT_EQ(a, b);
}

TEST(TraceFormat, RejectsBadMagic)
{
    std::string bytes = trace::encodeTrace(sampleMeta(), sampleStreams());
    bytes[0] = 'X';
    expectDecodeError(bytes, "bad magic");
}

TEST(TraceFormat, RejectsUnsupportedVersion)
{
    std::string bytes = trace::encodeTrace(sampleMeta(), sampleStreams());
    bytes[4] = 99; // u32 version little-endian low byte
    expectDecodeError(bytes, "version");
}

TEST(TraceFormat, RejectsTruncatedHeaderAndRecords)
{
    const std::string bytes =
        trace::encodeTrace(sampleMeta(), sampleStreams());
    // Mid-header cut.
    expectDecodeError(bytes.substr(0, 10), "truncated");
    // Mid-record cut: the byte count no longer matches the promised
    // record count.
    expectDecodeError(bytes.substr(0, bytes.size() - 5), "promises");
}

TEST(TraceFormat, RejectsOutOfRangeNodeAndBrokenSeq)
{
    const trace::TraceMeta meta = sampleMeta();
    const auto streams = sampleStreams();
    const std::string good = trace::encodeTrace(meta, streams);
    const std::size_t firstRecord =
        good.size() - 6 * trace::traceRecordBytes;

    // Node id beyond nodeCount (record u16 at offset 0).
    std::string bad = good;
    bad[firstRecord] = 17;
    expectDecodeError(bad, "node");

    // Per-node seq gap (record u32 seq at offset 4).
    bad = good;
    bad[firstRecord + 4] = 5;
    expectDecodeError(bad, "seq");

    // Nonzero reserved byte.
    bad = good;
    bad[firstRecord + 3] = 1;
    expectDecodeError(bad, "reserved");
}

TEST(TraceFormat, RejectsAnAddressOfFiftySixBits)
{
    trace::TraceMeta meta = sampleMeta();
    meta.nodeCount = 1;
    std::string bytes =
        trace::encodeTrace(meta, {{MemOp::write(MemOp::maxAddr)}});
    // The payload is the record's last 8 bytes: 2^56 - 1 -> 2^56.
    std::fill(bytes.end() - 8, bytes.end(), '\0');
    bytes[bytes.size() - 1] = 1;
    expectDecodeError(bytes, "<memory>: record 0: address "
                             "0x100000000000000 exceeds 56 bits");
}

TEST(TraceFormat, RejectsHostileCountsBeforeAllocating)
{
    std::string bytes = trace::encodeTrace(sampleMeta(), {{}, {}, {}});
    // 44 fixed header bytes, then "PCmicro" and "small" behind their
    // u16 lengths.
    ASSERT_EQ(bytes.size(), 44u + 2 + 7 + 2 + 5);
    // nodeCount 0xFFFFFFFF would ask for 4G empty streams.
    std::string bad = bytes;
    std::fill(bad.begin() + 8, bad.begin() + 12, '\xff');
    expectDecodeError(bad, "<memory>: header nodeCount 4294967295 "
                           "exceeds 4096 nodes");
    // opCount 2^60: times 16 wraps to 0, the empty record section.
    bad = bytes;
    bad[36 + 7] = 0x10;
    expectDecodeError(bad, "<memory>: record section is 0 bytes but "
                           "the header promises 1152921504606846976 "
                           "records of 16 bytes");
}

TEST(TraceFormat, EncoderAppliesTheReadersNodeCountBound)
{
    using Streams = std::vector<std::vector<MemOp>>;
    const unsigned max = ProtocolConfig::maxNodes;
    trace::TraceMeta meta = sampleMeta();
    const auto encodeError = [&](std::uint32_t nodes) {
        meta.nodeCount = nodes;
        try {
            trace::encodeTrace(meta, Streams(nodes));
        } catch (const trace::TraceError &e) {
            return std::string(e.what());
        }
        return std::string("encoded");
    };
    EXPECT_EQ(encodeError(max + 1),
              "<encode>: header nodeCount 4097 exceeds 4096 nodes");
    EXPECT_EQ(encodeError(0), "<encode>: header nodeCount is zero");

    // The streamed write leaves no file; the largest machine's trace
    // writes and reads back.
    const std::string path = testing::TempDir() + "pcsim_trace_nodes.pctr";
    meta.nodeCount = max + 1;
    EXPECT_THROW(trace::writeTraceFile(path, meta, Streams(max + 1)),
                 trace::TraceError);
    EXPECT_EQ(std::fopen(path.c_str(), "rb"), nullptr);
    meta.nodeCount = max;
    trace::writeTraceFile(path, meta, Streams(max));
    EXPECT_EQ(trace::readTraceFile(path).perNode.size(), max);
    std::remove(path.c_str());
}

TEST(TraceFormat, FileRoundTripAndHeaderOnlyRead)
{
    const std::string path =
        testing::TempDir() + "pcsim_trace_roundtrip.pctr";
    trace::writeTraceFile(path, sampleMeta(), sampleStreams());
    const trace::TraceData back = trace::readTraceFile(path);
    EXPECT_EQ(back.meta.opCount, 6u);

    const trace::TraceMeta meta = trace::readTraceMeta(path);
    EXPECT_EQ(meta.workload, "PCmicro");
    EXPECT_EQ(meta.opCount, 6u);
    std::remove(path.c_str());
}

TEST(TraceReplay, JobRunsTheHeadersMachine)
{
    trace::TraceMeta meta = sampleMeta();
    meta.lineBytes = 64;
    const std::string path = testing::TempDir() + "pcsim_trace_job.pctr";
    trace::writeTraceFile(path, meta, sampleStreams());

    runner::JobRequest r;
    r.config = "";
    r.checker = true;
    runner::Job j;
    ASSERT_EQ(runner::replayJob(path, r, j), "");
    EXPECT_EQ(j.workload, "PCmicro");
    EXPECT_EQ(j.configName, "small");
    EXPECT_EQ(j.seed, 42u);
    EXPECT_EQ(j.scale, 0.5);
    EXPECT_EQ(j.cfg.proto.numNodes, 3u);
    EXPECT_EQ(j.cfg.proto.lineBytes, 64u);
    EXPECT_EQ(j.cfg.proto.sharerGranularityLog2, 1u); // coarse 2
    EXPECT_TRUE(j.cfg.proto.checkerEnabled);
    EXPECT_FALSE(j.cfg.proto.conformanceEnabled);
    const std::unique_ptr<Workload> wl = j.factory();
    EXPECT_EQ(wl->cpuOps(0)->size(), 3u);

    // --config overrides the header's preset.
    r.config = "base";
    ASSERT_EQ(runner::replayJob(path, r, j), "");
    EXPECT_EQ(j.configName, "base");

    // A malformed file builds no job.
    writeFile(path, "PCTX");
    EXPECT_NE(runner::replayJob(path, r, j).find("bad magic"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(TraceReplay, ReproducesRecordedStatsByteForByte)
{
    // Record a KVServe run (Zipf + per-node RNG: a stream the replay
    // could never regenerate by accident) from its own streams.
    KvServingWorkload source(16);
    RunResult recorded = runWorkload(presets::small(16), source, "small");

    trace::TraceMeta meta;
    meta.nodeCount = 16;
    meta.seed = 1;
    meta.workload = "KVServe";
    meta.config = "small";
    const std::string path =
        testing::TempDir() + "pcsim_trace_replay.pctr";
    // Streamed in 64 KiB pieces, the file is the encoded string.
    const std::uint64_t written = trace::writeTraceFile(path, meta, source);
    const std::string encoded = trace::encodeTrace(meta, source);
    EXPECT_GT(encoded.size(), 3u * 64 * 1024);
    EXPECT_EQ(written, encoded.size());
    EXPECT_EQ(readFile(path), encoded);

    auto replay = trace::loadReplayWorkload(path);
    EXPECT_EQ(replay->name(), "KVServe");
    RunResult replayed = runWorkload(presets::small(16), *replay, "small");
    EXPECT_EQ(runner::toJson(recorded).dump(),
              runner::toJson(replayed).dump());

    // A second replay from the same workload object (reset path).
    RunResult again = runWorkload(presets::small(16), *replay, "small");
    EXPECT_EQ(runner::toJson(recorded).dump(),
              runner::toJson(again).dump());
    std::remove(path.c_str());
}

TEST(TextIngest, ParsesLabelsAndSkipsCommentsBlanks)
{
    const std::string text = "# per-core trace\n"
                             "0 0x1000\n"
                             "\n"
                             "1 20AB\n"
                             "2 64\n";
    const auto ops = trace::parseTextTrace(text, "<memory>");
    ASSERT_EQ(ops.size(), 3u);
    EXPECT_EQ(ops[0].kind, MemOp::Kind::Read);
    EXPECT_EQ(ops[0].addr(), 0x1000u);
    EXPECT_EQ(ops[1].kind, MemOp::Kind::Write);
    EXPECT_EQ(ops[1].addr(), 0x20ABu);
    EXPECT_EQ(ops[2].kind, MemOp::Kind::Think);
    EXPECT_EQ(ops[2].cycles(), 0x64u);
}

TEST(TextIngest, ErrorsNameFileAndLine)
{
    const auto expectError = [](const std::string &text,
                                const std::string &needle) {
        try {
            trace::parseTextTrace(text, "core0.data");
            FAIL() << "accepted '" << text << "'";
        } catch (const trace::TraceError &e) {
            EXPECT_NE(std::string(e.what()).find(needle),
                      std::string::npos)
                << "error was: " << e.what();
        }
    };
    expectError("0 1000\n3 2000\n", "core0.data:2: unknown label '3'");
    expectError("0\n", "core0.data:1: expected '<label> <value>'");
    expectError("0 xyz\n", "core0.data:1: bad hex value");
    expectError("2 1ffffffff\n", "exceed 32 bits");
    expectError("1 10000000000000000\n", "overflows 64 bits");
    expectError("0 100000000000000\n",
                "core0.data:1: address '100000000000000' exceeds 56 bits");
}

TEST(TextIngest, AcceptsThePayloadLimits)
{
    const auto ops = trace::parseTextTrace(
        "0 0xffffffffffffff\n1 FFFFFFFFFFFFFF\n2 ffffffff\n",
        "<memory>");
    ASSERT_EQ(ops.size(), 3u);
    EXPECT_EQ(ops[0].addr(), MemOp::maxAddr);
    EXPECT_EQ(ops[1].kind, MemOp::Kind::Write);
    EXPECT_EQ(ops[1].addr(), MemOp::maxAddr);
    EXPECT_EQ(ops[2].cycles(), 0xFFFFFFFFu);
}

TEST(TextIngest, NodeBoundFailsBeforeAnyFileIsRead)
{
    // One file per node: a path list longer than the largest machine
    // fails on its length, before the first (missing) file is opened.
    std::vector<std::string> paths;
    for (unsigned i = 0; i <= ProtocolConfig::maxNodes; ++i)
        paths.push_back(testing::TempDir() + "pcsim_missing_core" +
                        std::to_string(i) + ".data");
    try {
        trace::ingestTextTraces(paths);
        FAIL() << "ingested " << paths.size() << " paths";
    } catch (const trace::TraceError &e) {
        EXPECT_EQ(std::string(e.what()),
                  "ingest: header nodeCount 4097 exceeds 4096 nodes");
    }
}

TEST(TextIngest, GoldenFilesIngestAndRun)
{
    const std::string dir =
        std::string(PCSIM_SOURCE_DIR) + "/tests/golden/";
    // A 16-node machine: two real per-core files, the rest empty
    // streams via /dev/null-equivalent is not portable, so the
    // committed pair drives a 2-node ingest instead.
    const trace::TraceData data = trace::ingestTextTraces(
        {dir + "ingest_core0.data", dir + "ingest_core1.data"},
        "ingest", 128);
    EXPECT_EQ(data.meta.nodeCount, 2u);
    EXPECT_EQ(data.meta.workload, "ingest");
    ASSERT_EQ(data.perNode.size(), 2u);
    // Every stream leads with the init-ending barrier.
    for (const auto &stream : data.perNode) {
        ASSERT_FALSE(stream.empty());
        EXPECT_EQ(stream[0].kind, MemOp::Kind::Barrier);
    }

    // The ingested trace drives a full simulation.
    trace::TraceReplayWorkload wl{trace::TraceData(data)};
    MachineConfig cfg = presets::base(2);
    cfg.proto.checkerEnabled = true;
    RunResult r = runWorkload(cfg, wl, "base");
    EXPECT_GT(r.nodes.reads + r.nodes.writes, 0u);
}

TEST(TraceGolden, CommittedBinaryTraceDecodesAndReencodesIdentically)
{
    const std::string path = std::string(PCSIM_SOURCE_DIR) +
                             "/tests/golden/pcmicro_small.pctr";
    const std::string bytes = readFile(path);
    ASSERT_FALSE(bytes.empty()) << path;
    const trace::TraceData data = trace::decodeTrace(bytes, path);
    EXPECT_EQ(data.meta.workload, "PCmicro");
    EXPECT_EQ(data.meta.config, "small");
    EXPECT_EQ(data.meta.nodeCount, 16u);

    // Writer stability: re-encoding the decoded trace reproduces the
    // committed bytes exactly.
    EXPECT_EQ(trace::encodeTrace(data.meta, data.perNode), bytes);

    // Encoding the generator's own streams reproduces the file too:
    // the committed trace pins generator + writer behavior.
    ProducerConsumerMicro source(16, ProducerConsumerMicro::Params{});
    EXPECT_EQ(trace::encodeTrace(data.meta, source), bytes);
}

TEST(TraceGolden, TruncatedFileIsRejectedWithPath)
{
    const std::string src = std::string(PCSIM_SOURCE_DIR) +
                            "/tests/golden/pcmicro_small.pctr";
    const std::string bytes = readFile(src);
    ASSERT_FALSE(bytes.empty());
    const std::string path =
        testing::TempDir() + "pcsim_truncated.pctr";
    writeFile(path, bytes.substr(0, bytes.size() / 2));
    try {
        trace::readTraceFile(path);
        FAIL() << "accepted truncated file";
    } catch (const trace::TraceError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find(path), std::string::npos) << msg;
        EXPECT_NE(msg.find("truncated"), std::string::npos) << msg;
    }
    std::remove(path.c_str());
}
