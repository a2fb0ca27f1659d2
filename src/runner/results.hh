/**
 * @file
 * Structured result serialization: JobResult / RunResult to JSON and
 * CSV.
 *
 * JSON schema (schemaVersion 3):
 *
 *   {
 *     "schemaVersion": 3,
 *     "generator": "pcsim",
 *     "hostCores": N,                    // only with_timing
 *     "results": [
 *       {
 *         "workload": "Em3D", "config": "Base", "label": "Em3D/Base",
 *         "seed": 1, "scale": 1.0, "ok": true, "error": "",
 *         "cycles": 123456,
 *         "netMessages": N, "netBytes": N,
 *         "nackMessages": N, "updateMessages": N,
 *         "nodes": { "reads": N, "writes": N, ... },   // NodeStats
 *         "consumerHist": { "total": N, "buckets": [N, ...] },
 *         "perf": {                      // kernel telemetry
 *           "eventsExecuted": N, "eventsScheduled": N,
 *           "inlineCallbacks": N, "heapCallbacks": N,
 *           "poolAcquires": N, "simTicks": N,
 *           // only when serialized with_timing (never in
 *           // determinism-checked documents):
 *           "peakQueueDepth": N, "overflowEvents": N,
 *           "windowAdvances": N, "poolReuses": N,
 *           "wallSeconds": F, "eventsPerSec": F, "ticksPerSec": F
 *         }
 *       }, ...
 *     ]
 *   }
 *
 * Each counter is named once: nodeCounters (src/protocol/node_stats.hh)
 * gives every NodeStats counter the block that carries it -- "nodes",
 * or the optional "retry", "fairness" and "policy" blocks -- and
 * runPerfCounters (src/sim/perf.hh) every "perf" counter. The CSV has
 * one nodes.X column per "nodes" counter and one perf.X column per
 * RunPerf counter, in list order.
 *
 * The default "perf" counters are pure functions of the simulated
 * machine + workload; wall-clock rates are host noise. The default
 * (with_timing = false) drops the rates, and with them the
 * queue-shape and pool-recycling counters that schemaVersion 3 moved
 * behind the opt-in, so the document is byte-identical across thread
 * counts and hosts — the repo-wide guarantee the determinism checks
 * diff. Opting in (pcsim --timing) trades that diffability for
 * throughput visibility.
 */

#ifndef PCSIM_RUNNER_RESULTS_HH
#define PCSIM_RUNNER_RESULTS_HH

#include <string>
#include <vector>

#include "src/runner/runner.hh"
#include "src/sim/json.hh"
#include "src/system/system.hh"

namespace pcsim
{
namespace runner
{

/** Serialize one run's statistics (without job metadata).
 *  @param with_timing include host wall-clock rates (default off:
 *         they break cross-host/thread-count byte identity). */
JsonValue toJson(const RunResult &r, bool with_timing = false);

/** Decode a result's "conformance" block (toJson()'s layout).
 *  @throws std::invalid_argument naming the first missing or
 *          mistyped member, as a path below the block
 *          ("observed[3].ctrl is missing"). */
std::vector<verify::TransitionCount>
conformanceFromJson(const JsonValue &conf);

/** Serialize one job outcome (spec + statistics). */
JsonValue toJson(const JobResult &r, bool with_timing = false);

/** Serialize a whole result set as a schema-versioned document. */
JsonValue resultsToJson(const std::vector<JobResult> &results,
                        bool with_timing = false);

/** Flat CSV: one row per job, fixed column order, RFC-4180 quoting.
 *  Timing columns are emitted only when @p with_timing. */
std::string resultsToCsv(const std::vector<JobResult> &results,
                         bool with_timing = false);

/** Write @p text to @p path; "-" writes to stdout.
 *  @return false (with a warning) if the file cannot be written. */
bool writeTextFile(const std::string &path, const std::string &text);

} // namespace runner
} // namespace pcsim

#endif // PCSIM_RUNNER_RESULTS_HH
