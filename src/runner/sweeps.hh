/**
 * @file
 * The sweep registry: every experiment pcsim reproduces or measures,
 * as data.
 *
 * An entry names a job grid built from the command-line arguments and
 * a table printed from the grid's in-memory results. `pcsim sweep
 * NAME` and `pcsim scale|serve|compare|faults|qos` find their entry by
 * name.
 * One shared path, runSweep(), runs a grid, performs
 * --deterministic-check, writes the JSON/CSV documents, prints the
 * table and maps the outcome to an exit code; `pcsim run` and `pcsim
 * trace record|replay` use it with their own grids.
 *
 * Entries:
 *   fig7 fig8 fig9 fig10 fig11 fig12  the paper's Figures 7-12 (fig7
 *                                     also prints Table 3 and the
 *                                     Section 3.2 headline)
 *   table2                            problem sizes; runs nothing
 *   ablation-delegation               delegation without updates
 *   ablation-detector                 write-repeat threshold and
 *                                     directory-cache size
 *   scale                             base, delegation and
 *                                     delegate-update at 16..1024
 *                                     nodes (one workload, Em3D)
 *   serve compare faults qos          the serving sweep, the policy
 *                                     bake-off, fault injection and
 *                                     the arbitration bake-off
 *
 * Every paper entry, and scale, runs with the coherence checker off
 * (they measure speed; the invariant checks live in tests/ and
 * examples/), at the scale factor it always used relative to --scale;
 * serve, compare, faults and qos turn it on. No entry relies on
 * ProtocolConfig's default.
 */

#ifndef PCSIM_RUNNER_SWEEPS_HH
#define PCSIM_RUNNER_SWEEPS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/runner/job.hh"
#include "src/runner/runner.hh"

namespace pcsim
{
namespace runner
{

/** The command-line arguments a sweep reads. Empty lists select the
 *  entry's defaults. */
struct SweepArgs
{
    /** Workload names (`run` crosses them all; faults and qos take
     *  one, default PCmicro; scale takes one, default Em3D). */
    std::vector<std::string> workloads;
    /** Scenario names (serve, compare, faults, qos). */
    std::vector<std::string> scenarios;
    /** Directory arbitration modes (faults, qos). */
    std::vector<std::string> arbitrations;
    /** Machine sizes (serve and compare sweep a list, default 16 and
     *  64; scale too, default 16..1024; every other entry runs the
     *  first, default 16). */
    std::vector<unsigned> nodes;
    /** Workload scale factor, relative to each entry's own scale. */
    double scale = 1.0;
    /** Seeds (`run` crosses them all; sweeps use the first). */
    std::vector<std::uint64_t> seeds{1};
    /** Worker threads; 0 = all cores. */
    unsigned threads = 0;
    /** Results documents ("" = none, or the entry's default JSON
     *  path; "-" = stdout, which also suppresses the table). */
    std::string jsonPath;
    std::string csvPath;
    /** Suppress per-job progress on stderr. */
    bool quiet = false;
    /** Serialize host wall-clock rates and the host's core count
     *  (breaks byte identity). */
    bool timing = false;
    /** Run every job twice and byte-compare the documents instead of
     *  writing them; exit 3 on mismatch. */
    bool deterministicCheck = false;
    bool table = true;
};

/** SweepArgs members an entry reads beyond the machine size, scale
 *  and seed every entry reads (Sweep::reads). */
enum SweepReads : unsigned
{
    readsWorkload = 1u << 0,     ///< one workload
    readsScenarios = 1u << 1,    ///< scenarios
    readsArbitrations = 1u << 2, ///< arbitration modes
    readsNodeList = 1u << 3,     ///< every size, not just the first
};

/** One registered sweep. */
struct Sweep
{
    const char *name;
    /** Results document written when --json is not given ("" =
     *  none). */
    const char *jsonPath;
    /** The job grid; empty when an argument names nothing the entry
     *  can run. Null for an entry that prints without simulating. */
    JobSet (*jobs)(const SweepArgs &);
    /** Print the table on stdout from the grid's results. */
    void (*print)(const std::vector<JobResult> &, const SweepArgs &);
    /** What the arguments may name, quoted when the grid is empty. */
    const char *hint;
    /** The grid arguments it reads (SweepReads bits). */
    unsigned reads = 0;
};

/** Every entry, in `pcsim help` order. */
const std::vector<Sweep> &sweeps();

/** The entry called @p name; nullptr when there is none. */
const Sweep *findSweep(const std::string &name);

/** Prints a table from a grid's results. */
using TablePrinter =
    std::function<void(const std::vector<JobResult> &)>;

/**
 * The shared path: run @p set (or, with --deterministic-check, run it
 * twice and byte-compare), write the documents @p args asks for and
 * print the table unless a document went to stdout.
 * @return process exit code: 0 ok, 1 I/O error, 2 a job failed,
 *         3 non-deterministic.
 */
int runSweep(const JobSet &set, const SweepArgs &args,
             const TablePrinter &print);

/** Run entry @p s: build its grid from @p args (1 when that names
 *  nothing runnable) and take the shared path, writing the entry's
 *  default JSON path when --json is not given. */
int runSweep(const Sweep &s, SweepArgs args);

} // namespace runner
} // namespace pcsim

#endif // PCSIM_RUNNER_SWEEPS_HH
