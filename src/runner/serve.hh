/**
 * @file
 * `pcsim serve`: the datacenter serving-workload sweep.
 *
 * Runs the serving family (KVServe, WorkQueue, RCU, PubSub) across
 * {base, delegation, delegate-update} at each requested node count,
 * and reports where the paper's producer-consumer optimization pays
 * off on serving-shaped sharing instead of scientific kernels. The
 * committed reference is BENCH_serve.json; CI re-runs the sweep and
 * byte-diffs it, so the document is serialized without timing fields
 * (the schemaVersion 2 determinism contract of
 * src/runner/results.hh).
 */

#ifndef PCSIM_RUNNER_SERVE_HH
#define PCSIM_RUNNER_SERVE_HH

#include <string>
#include <vector>

#include "src/runner/job.hh"

namespace pcsim
{
namespace runner
{

/** Options for the serving sweep (the `pcsim serve` flags). */
struct ServeOptions
{
    /** Scenario names to run (empty = the whole family in
     *  servingNames() order). */
    std::vector<std::string> scenarios;
    /** Machine sizes to sweep; defaults keep CI cheap while still
     *  crossing the coarse-vector boundary behaviors. Any value up to
     *  ProtocolConfig::maxNodes (4096) is accepted. */
    std::vector<unsigned> nodes = {16, 64};
    double scale = 1.0;
    std::uint64_t seed = 1;
    /** Worker threads; 0 = all cores. */
    unsigned threads = 0;
    /** Write the results document here ("" = don't; "-" = stdout);
     *  the committed reference is BENCH_serve.json. */
    std::string jsonPath;
    std::string csvPath;
    bool quiet = false;
    /** Include host wall-clock rates in the document (breaks byte
     *  identity with the committed reference). */
    bool timing = false;
    /** Run every job twice and byte-compare the serialized results;
     *  exit 3 on mismatch. */
    bool deterministicCheck = false;
    /** Print the scenario x config summary table. */
    bool table = true;
};

/** Build the scenario x node-count x mechanism JobSet (exposed for
 *  tests). Returns an empty set when a requested scenario name is
 *  unknown or a node count is invalid. */
JobSet serveJobs(const ServeOptions &opt);

/**
 * Run the sweep.
 * @return process exit code: 0 ok, 1 usage/I-O error, 2 a job
 *         failed, 3 non-deterministic.
 */
int runServeSweep(const ServeOptions &opt);

} // namespace runner
} // namespace pcsim

#endif // PCSIM_RUNNER_SERVE_HH
