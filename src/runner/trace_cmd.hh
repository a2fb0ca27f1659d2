/**
 * @file
 * What `pcsim trace record|replay|info` add to `pcsim run`.
 *
 * record -- a one-job run (buildJob, runSweep), then writeJobTrace():
 * once the run succeeded, the job's registry workload is generated
 * again and its own per-node streams (Workload::cpuOps) are encoded
 * as a binary PCTR file (src/trace/format.hh), written as it is
 * encoded. With --text,
 * ingestTextFiles() converts external per-core text traces
 * (src/trace/text_ingest.hh) into the same format instead.
 *
 * replay -- a one-job run of replayJob(): the job the trace header
 * names (preset, nodes, seed, scale, line size, sharer granularity),
 * built through buildJob and driven from the decoded per-node
 * streams. Its documents are byte-identical to the recorded run's at
 * any runner thread count.
 *
 * info -- print the header.
 */

#ifndef PCSIM_RUNNER_TRACE_CMD_HH
#define PCSIM_RUNNER_TRACE_CMD_HH

#include <string>
#include <vector>

#include "src/runner/job.hh"

namespace pcsim
{
namespace runner
{

/** Write the trace of @p job, a registry workload's job, to @p path;
 *  false after printing why it could not be written. */
bool writeJobTrace(const Job &job, const std::string &path, bool quiet);

/**
 * Read the trace at @p path into the job that replays it, @p out. The
 * header names the workload, machine size, seed, scale, line size and
 * sharer granularity; @p r the checker, conformance and the preset
 * ("" = the header's, or base when it has none).
 * @return "" on success, else why (a malformed file included).
 */
std::string replayJob(const std::string &path, JobRequest r, Job &out);

/** Convert per-core text traces (`<label> <hexaddr>` lines; label 0 =
 *  load, 1 = store, 2 = compute cycles), one file per node, to a
 *  trace at @p out_path. @return process exit code: 0 ok, 1 a file
 *  was malformed or could not be read or written. */
int ingestTextFiles(const std::vector<std::string> &paths,
                    const std::string &out_path, double scale,
                    bool quiet);

/** Print the header of the trace at @p path; 1 when it is
 *  malformed. */
int runTraceInfo(const std::string &path);

} // namespace runner
} // namespace pcsim

#endif // PCSIM_RUNNER_TRACE_CMD_HH
