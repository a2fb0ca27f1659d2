/**
 * @file
 * `pcsim faults`: the fault-injection robustness sweep.
 *
 * Runs scenario x mechanism (base / delegation / delegate-update) with
 * the coherence checker AND the conformance observer enabled, under
 * the standard fault scenarios (src/system/presets.hh
 * faultScenarios()). Every job uses the shared exponential backoff
 * (retryExpCap raised from the paper's flat default) so NACK storms
 * provoked by the faults spread out instead of convoying. The point
 * of the sweep is that it completes at all: any checker or
 * conformance violation under faults fails the run, and the committed
 * BENCH_faults.json documents the retry telemetry of a healthy
 * protocol under stress.
 */

#ifndef PCSIM_RUNNER_FAULTS_HH
#define PCSIM_RUNNER_FAULTS_HH

#include <string>
#include <vector>

#include "src/runner/job.hh"

namespace pcsim
{
namespace runner
{

/** Options for the fault sweep (the `pcsim faults` flags). */
struct FaultsOptions
{
    /** Workload every point runs (PCmicro provokes the most
     *  producer-consumer protocol traffic per tick). */
    std::string workload = "PCmicro";
    double scale = 1.0;
    unsigned nodes = 16;
    /** Scenario names to run ("" / empty = all of
     *  presets::faultScenarios()). */
    std::vector<std::string> scenarios;
    /** Arbitration modes to cross with the scenarios (empty =
     *  {"nack-retry"}, the historic single-mode sweep). The default
     *  mode keeps its historic labels ("scenario/config"); other modes
     *  label as "scenario/arbitration/config". `pcsim qos` sets all
     *  three to produce BENCH_qos.json. */
    std::vector<std::string> arbitrations;
    std::uint64_t seed = 1;
    /** Worker threads; 0 = all cores. */
    unsigned threads = 0;
    /** Write the results document here ("" = don't; "-" = stdout);
     *  the committed reference is BENCH_faults.json. */
    std::string jsonPath;
    std::string csvPath;
    bool quiet = false;
    /** Run every job twice and byte-compare the serialized results;
     *  exit 3 on mismatch. */
    bool deterministicCheck = false;
    /** Print the scenario x mechanism summary table. */
    bool table = true;
};

/** Build the scenario x mechanism JobSet (exposed for tests).
 *  Returns an empty set when a requested scenario name is unknown. */
JobSet faultJobs(const FaultsOptions &opt);

/**
 * Run the sweep.
 * @return process exit code: 0 ok, 1 usage/I-O error, 2 a job failed
 *         (checker or conformance violation aborts the process
 *         instead), 3 non-deterministic.
 */
int runFaultSweep(const FaultsOptions &opt);

} // namespace runner
} // namespace pcsim

#endif // PCSIM_RUNNER_FAULTS_HH
