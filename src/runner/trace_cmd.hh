/**
 * @file
 * `pcsim trace record|replay|info`: the trace record/replay frontend.
 *
 * record -- run a registry workload under a named machine preset with
 * the op stream teed into a TraceRecorder, and serialize the capture
 * as a binary PCTR file (src/trace/format.hh). With --text, skip the
 * simulation and ingest external per-core text traces
 * (src/trace/text_ingest.hh) into the same format instead.
 *
 * replay -- load a PCTR file, rebuild the source run's job identity
 * (workload name, config preset, seed, scale) from its header, and
 * drive the simulator from the per-node cursors. Stats serialized
 * from a replay are byte-identical to the recorded run's at any
 * runner thread count.
 *
 * info -- print the header without decoding the op payload.
 */

#ifndef PCSIM_RUNNER_TRACE_CMD_HH
#define PCSIM_RUNNER_TRACE_CMD_HH

#include <string>
#include <vector>

#include "src/runner/sweeps.hh"

namespace pcsim
{
namespace runner
{

/** Options for `pcsim trace record`. */
struct TraceRecordOptions
{
    /** The run: first workload (default PCmicro), first node count
     *  (default 16), scale, first seed, quiet. Its JSON/CSV documents
     *  are the ones replay must reproduce. */
    SweepArgs args;
    std::string config = "base";
    /** Trace output path (required). */
    std::string outPath;
    /** Ingest mode: per-core text trace files (`<label> <hexaddr>`
     *  lines; label 0 = load, 1 = store, 2 = compute cycles), one
     *  file per node. No simulation runs; --workload/--config/--seed
     *  do not apply. */
    std::vector<std::string> textPaths;
};

/** Options for `pcsim trace replay`. */
struct TraceReplayOptions
{
    std::string tracePath;
    /** Override the header's machine preset ("" = use the header's;
     *  ingested traces default to "base"). */
    std::string config;
    /** Worker threads, documents, quiet and timing. */
    SweepArgs args;
};

/** @return process exit code: 0 ok, 1 usage/I-O error, 2 run or
 *          ingest failed. */
int runTraceRecord(const TraceRecordOptions &opt);
int runTraceReplay(const TraceReplayOptions &opt);
int runTraceInfo(const std::string &path);

} // namespace runner
} // namespace pcsim

#endif // PCSIM_RUNNER_TRACE_CMD_HH
