/**
 * @file
 * Experiment job specifications.
 *
 * A Job names one independent simulation: a workload, a machine
 * configuration, a seed and a display label. A JobSet is an ordered
 * collection of jobs with cartesian-sweep builders; the runner
 * (src/runner/runner.hh) executes a JobSet across a worker pool and
 * returns results in job order regardless of scheduling.
 *
 * Workloads are named, not owned: every worker constructs its own
 * instance from the registry (or the job's custom factory), so jobs
 * never share mutable workload state across threads.
 */

#ifndef PCSIM_RUNNER_JOB_HH
#define PCSIM_RUNNER_JOB_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/system/presets.hh"
#include "src/system/system.hh"
#include "src/workload/workload.hh"

namespace pcsim
{
namespace runner
{

/** Builds a fresh workload instance for one job execution. */
using WorkloadFactory = std::function<std::unique_ptr<Workload>()>;

/** Specification of one independent simulation. */
struct Job
{
    /** Registry name (see workloadNames()); ignored when a custom
     *  factory is set, but still used for labels and reports. */
    std::string workload;
    MachineConfig cfg;
    std::string configName;
    std::uint64_t seed = 1;
    /** Display label; JobSet::add defaults it to
     *  "workload/configName". */
    std::string label;
    /** Workload scale factor (same meaning as makeWorkload). */
    double scale = 1.0;
    /** Optional override of the registry lookup. */
    WorkloadFactory factory;
};

/** An ordered set of jobs. */
class JobSet
{
  public:
    /** Append one job, defaulting an empty label. */
    JobSet &add(Job j);

    /** Append workload x config with default seed/scale. */
    JobSet &add(const std::string &workload,
                const presets::NamedConfig &config,
                std::uint64_t seed = 1, double scale = 1.0);

    /**
     * Cartesian sweep: every workload under every configuration for
     * every seed, in (workload, config, seed) lexicographic order --
     * the natural order of the hand-rolled bench loops this replaces.
     */
    JobSet &sweep(const std::vector<std::string> &workloads,
                  const std::vector<presets::NamedConfig> &configs,
                  double scale = 1.0,
                  const std::vector<std::uint64_t> &seeds = {1});

    std::size_t size() const { return _jobs.size(); }
    bool empty() const { return _jobs.empty(); }
    const std::vector<Job> &jobs() const { return _jobs; }
    std::vector<Job> &jobs() { return _jobs; }

  private:
    std::vector<Job> _jobs;
};

// --- workload registry -------------------------------------------

/** All runnable workload names: the Table 2 suite, the directed micro
 *  patterns ("PCmicro", "Migratory", "Random"), and the datacenter
 *  serving family ("KVServe", "WorkQueue", "RCU", "PubSub"). */
std::vector<std::string> workloadNames();

/** Case-insensitive canonicalization ("em3d" -> "Em3D", "micro" ->
 *  "PCmicro"); returns "" for unknown names. */
std::string canonicalWorkload(const std::string &name);

/**
 * Instantiate a registry workload.
 * @throws std::invalid_argument for unknown names (the runner turns
 *         this into a failed job instead of exiting).
 */
std::unique_ptr<Workload> makeRunnerWorkload(const std::string &name,
                                             unsigned num_cpus,
                                             double scale = 1.0);

// --- configuration registry --------------------------------------

/** One named machine configuration usable from the CLI. */
struct ConfigPreset
{
    const char *name;
    const char *alias;       ///< second spelling ("" = none)
    const char *description; ///< one line for `pcsim list`
    MachineConfig (*make)(unsigned num_nodes);
};

/** Every named machine configuration, in `pcsim list` order. */
const std::vector<ConfigPreset> &configPresets();

/**
 * Look up a machine configuration preset by name (case-insensitive;
 * "pcopt" is the paper's small delegate+update system, "pcopt-large"
 * the large one). Returns false for unknown names; on success fills
 * @p out and @p canonical with the preset and its canonical name.
 */
bool namedMachineConfig(const std::string &name, unsigned num_nodes,
                        MachineConfig &out, std::string &canonical);

} // namespace runner
} // namespace pcsim

#endif // PCSIM_RUNNER_JOB_HH
