/**
 * @file
 * `pcsim compare`: the coherence-policy bake-off.
 *
 * Runs every registered coherence policy (src/protocol/policy.hh --
 * mesi-dir, delegation, delegation-updates, write-update,
 * adaptive-hybrid) over a scenario x node-count grid and prints a
 * vs-base table, so the paper's delegation+updates wins are measured
 * against the strongest alternatives instead of only the base
 * MESI-directory strawman. The committed reference is
 * BENCH_compare.json; CI re-runs the sweep and byte-diffs it, so the
 * document is serialized without timing fields (the schemaVersion
 * determinism contract of src/runner/results.hh).
 */

#ifndef PCSIM_RUNNER_COMPARE_HH
#define PCSIM_RUNNER_COMPARE_HH

#include <string>
#include <vector>

#include "src/runner/job.hh"

namespace pcsim
{
namespace runner
{

/** Options for the policy bake-off (the `pcsim compare` flags). */
struct CompareOptions
{
    /** Scenario names to run (empty = the default pair: PCmicro for
     *  the paper's directed pattern, PubSub for a serving-shaped
     *  single-writer/many-reader stream). Any registry workload is
     *  accepted. */
    std::vector<std::string> scenarios;
    /** Machine sizes to sweep; the defaults keep CI cheap while still
     *  crossing the coarse-vector boundary behaviors. */
    std::vector<unsigned> nodes = {16, 64};
    double scale = 1.0;
    std::uint64_t seed = 1;
    /** Worker threads; 0 = all cores. */
    unsigned threads = 0;
    /** Write the results document here ("" = don't; "-" = stdout);
     *  the committed reference is BENCH_compare.json. */
    std::string jsonPath;
    std::string csvPath;
    bool quiet = false;
    /** Include host wall-clock rates in the document (breaks byte
     *  identity with the committed reference). */
    bool timing = false;
    /** Run every job twice and byte-compare the serialized results;
     *  exit 3 on mismatch. */
    bool deterministicCheck = false;
    /** Print the scenario x policy summary table. */
    bool table = true;
};

/** Build the scenario x node-count x policy JobSet (exposed for
 *  tests). Returns an empty set when a requested scenario name is
 *  unknown or a node count is invalid. */
JobSet compareJobs(const CompareOptions &opt);

/**
 * Run the bake-off.
 * @return process exit code: 0 ok, 1 usage/I-O error, 2 a job
 *         failed, 3 non-deterministic.
 */
int runCompareSweep(const CompareOptions &opt);

} // namespace runner
} // namespace pcsim

#endif // PCSIM_RUNNER_COMPARE_HH
