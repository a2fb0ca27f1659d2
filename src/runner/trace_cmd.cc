#include "src/runner/trace_cmd.hh"

#include <cstdio>
#include <memory>
#include <utility>

#include "src/trace/replay.hh"
#include "src/trace/text_ingest.hh"
#include "src/workload/suite.hh"

namespace pcsim
{
namespace runner
{

bool
writeJobTrace(const Job &job, const std::string &path, bool quiet)
{
    const ProtocolConfig &p = job.cfg.proto;
    const std::unique_ptr<Workload> wl =
        makeWorkload(job.workload, p.numNodes, job.scale);
    trace::TraceMeta meta;
    meta.nodeCount = p.numNodes;
    meta.lineBytes = p.lineBytes;
    meta.coarse = 1u << p.sharerGranularityLog2;
    meta.seed = job.seed;
    meta.scale = job.scale;
    meta.workload = job.workload;
    meta.config = job.configName;
    std::uint64_t bytes = 0;
    try {
        bytes = trace::writeTraceFile(path, meta, *wl);
    } catch (const trace::TraceError &e) {
        std::fprintf(stderr, "pcsim trace record: %s\n", e.what());
        return false;
    }
    if (!quiet)
        std::fprintf(stderr, "recorded %llu bytes -> %s\n",
                     (unsigned long long)bytes, path.c_str());
    return true;
}

std::string
replayJob(const std::string &path, JobRequest r, Job &out)
{
    auto data = std::make_shared<trace::TraceData>();
    try {
        *data = trace::readTraceFile(path);
    } catch (const trace::TraceError &e) {
        return e.what();
    }
    const trace::TraceMeta &m = data->meta;
    if (r.config.empty())
        r.config = m.config.empty() ? "base" : m.config;
    r.workload = m.workload.empty() ? "trace" : m.workload;
    r.nodes = m.nodeCount;
    r.seed = m.seed;
    r.scale = m.scale;
    r.coarse = m.coarse;
    r.lineBytes = m.lineBytes;
    // The job runs once: its workload takes the decoded streams.
    r.factory = [data]() {
        return std::make_unique<trace::TraceReplayWorkload>(
            std::move(*data));
    };
    return buildJob(r, out);
}

int
ingestTextFiles(const std::vector<std::string> &paths,
                const std::string &out_path, double scale, bool quiet)
{
    try {
        trace::TraceData data = trace::ingestTextTraces(paths);
        data.meta.scale = scale;
        trace::writeTraceFile(out_path, data.meta, data.perNode);
        if (!quiet)
            std::fprintf(stderr,
                         "ingested %zu text trace(s): %llu ops -> %s\n",
                         paths.size(),
                         (unsigned long long)data.totalOps(),
                         out_path.c_str());
    } catch (const trace::TraceError &e) {
        std::fprintf(stderr, "pcsim trace record: %s\n", e.what());
        return 1;
    }
    return 0;
}

int
runTraceInfo(const std::string &path)
{
    try {
        const trace::TraceMeta meta = trace::readTraceMeta(path);
        std::printf("trace:     %s\n", path.c_str());
        std::printf("format:    PCTR v%u\n", trace::traceVersion);
        std::printf("workload:  %s\n", meta.workload.empty()
                                           ? "(unnamed)"
                                           : meta.workload.c_str());
        std::printf("config:    %s\n", meta.config.empty()
                                           ? "(none)"
                                           : meta.config.c_str());
        std::printf("nodes:     %u\n", meta.nodeCount);
        std::printf("lineBytes: %u\n", meta.lineBytes);
        std::printf("coarse:    %u node(s)/sharer bit\n", meta.coarse);
        std::printf("seed:      %llu\n",
                    (unsigned long long)meta.seed);
        std::printf("scale:     %g\n", meta.scale);
        std::printf("ops:       %llu\n",
                    (unsigned long long)meta.opCount);
    } catch (const trace::TraceError &e) {
        std::fprintf(stderr, "pcsim trace info: %s\n", e.what());
        return 1;
    }
    return 0;
}

} // namespace runner
} // namespace pcsim
