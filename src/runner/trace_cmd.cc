#include "src/runner/trace_cmd.hh"

#include <cstdio>
#include <memory>
#include <utility>

#include "src/runner/runner.hh"
#include "src/trace/recorder.hh"
#include "src/trace/replay.hh"
#include "src/trace/text_ingest.hh"

namespace pcsim
{
namespace runner
{

namespace
{

/** RecordingWorkload that owns its inner workload (the runner factory
 *  returns a single self-contained Workload). */
class OwningRecordingWorkload : public trace::RecordingWorkload
{
  public:
    OwningRecordingWorkload(std::unique_ptr<Workload> inner,
                            trace::TraceRecorder &recorder)
        : trace::RecordingWorkload(*inner, recorder),
          _owned(std::move(inner))
    {
    }

  private:
    std::unique_ptr<Workload> _owned;
};

int
ingestToFile(const TraceRecordOptions &opt)
{
    try {
        trace::TraceData data = trace::ingestTextTraces(opt.textPaths);
        data.meta.scale = opt.args.scale;
        trace::writeTraceFile(opt.outPath, data.meta, data.perNode);
        if (!opt.args.quiet)
            std::fprintf(stderr,
                         "ingested %zu text trace(s): %llu ops -> %s\n",
                         opt.textPaths.size(),
                         (unsigned long long)data.meta.opCount,
                         opt.outPath.c_str());
    } catch (const trace::TraceError &e) {
        std::fprintf(stderr, "pcsim trace record: %s\n", e.what());
        return 2;
    }
    return 0;
}

} // namespace

int
runTraceRecord(const TraceRecordOptions &opt)
{
    if (opt.outPath.empty()) {
        std::fprintf(stderr,
                     "pcsim trace record: missing --output <file>\n");
        return 1;
    }
    if (!opt.textPaths.empty())
        return ingestToFile(opt);

    const std::string wanted =
        opt.args.workloads.empty() ? "PCmicro" : opt.args.workloads[0];
    const std::string workload = canonicalWorkload(wanted);
    if (workload.empty()) {
        std::fprintf(stderr,
                     "pcsim trace record: unknown workload '%s'\n",
                     wanted.c_str());
        return 1;
    }
    const unsigned nodes =
        opt.args.nodes.empty() ? 16 : opt.args.nodes.front();
    const double scale = opt.args.scale;
    Job j;
    std::string configName;
    if (!namedMachineConfig(opt.config, nodes, j.cfg, configName)) {
        std::fprintf(stderr,
                     "pcsim trace record: unknown config '%s'\n",
                     opt.config.c_str());
        return 1;
    }
    j.workload = workload;
    j.configName = configName;
    j.seed = opt.args.seeds.front();
    j.scale = scale;

    trace::TraceRecorder recorder(nodes);
    j.factory = [&recorder, workload, nodes, scale]() {
        return std::make_unique<OwningRecordingWorkload>(
            makeRunnerWorkload(workload, nodes, scale), recorder);
    };

    JobSet set;
    set.add(std::move(j));

    RunnerOptions ropts;
    ropts.threads = 1;
    ropts.progress = !opt.args.quiet;
    const auto results = runJobs(set, ropts);
    if (!results[0].ok) {
        std::fprintf(stderr, "pcsim trace record: run failed: %s\n",
                     results[0].error.c_str());
        return 2;
    }

    trace::TraceMeta meta;
    meta.nodeCount = nodes;
    meta.lineBytes = results[0].job.cfg.proto.lineBytes;
    meta.coarse =
        1u << results[0].job.cfg.proto.sharerGranularityLog2;
    meta.seed = opt.args.seeds.front();
    meta.scale = scale;
    meta.workload = workload;
    meta.config = configName;
    try {
        recorder.writeFile(opt.outPath, meta);
    } catch (const trace::TraceError &e) {
        std::fprintf(stderr, "pcsim trace record: %s\n", e.what());
        return 1;
    }
    if (!opt.args.quiet)
        std::fprintf(stderr, "recorded %llu ops -> %s\n",
                     (unsigned long long)recorder.opCount(),
                     opt.outPath.c_str());
    return writeResults(results, opt.args) ? 0 : 1;
}

int
runTraceReplay(const TraceReplayOptions &opt)
{
    std::shared_ptr<trace::TraceData> data;
    try {
        data = std::make_shared<trace::TraceData>(
            trace::readTraceFile(opt.tracePath));
    } catch (const trace::TraceError &e) {
        std::fprintf(stderr, "pcsim trace replay: %s\n", e.what());
        return 1;
    }

    // Rebuild the source run's machine: preset name + node count from
    // the header (overridable), line size from the header.
    std::string preset = !opt.config.empty() ? opt.config
                         : !data->meta.config.empty()
                             ? data->meta.config
                             : "base";
    Job j;
    std::string configName;
    if (!namedMachineConfig(preset, data->meta.nodeCount, j.cfg,
                            configName)) {
        std::fprintf(stderr,
                     "pcsim trace replay: unknown config '%s'\n",
                     preset.c_str());
        return 1;
    }
    j.cfg.proto.lineBytes = data->meta.lineBytes;
    j.workload = data->meta.workload.empty() ? "trace"
                                             : data->meta.workload;
    j.configName = configName;
    j.seed = data->meta.seed;
    j.scale = data->meta.scale;
    j.factory = [data]() {
        // Copy: the workload consumes the streams, and every run must
        // start from the decoded trace.
        return std::make_unique<trace::TraceReplayWorkload>(*data);
    };

    JobSet set;
    set.add(std::move(j));

    RunnerOptions ropts;
    ropts.threads = opt.args.threads;
    ropts.progress = !opt.args.quiet;
    const auto results = runJobs(set, ropts);
    if (!results[0].ok) {
        std::fprintf(stderr, "pcsim trace replay: run failed: %s\n",
                     results[0].error.c_str());
        return 2;
    }

    const bool io_ok = writeResults(results, opt.args);
    if (!opt.args.quiet)
        std::fprintf(
            stderr, "replayed %llu ops (%s/%s): %llu cycles\n",
            (unsigned long long)data->totalOps(),
            results[0].job.workload.c_str(), configName.c_str(),
            (unsigned long long)results[0].result.cycles);
    return io_ok ? 0 : 1;
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
