/**
 * @file
 * The workload registry: one table of every runnable workload (the
 * seven Table 2 applications, the directed micro patterns and the
 * datacenter serving family) and the factory that builds them.
 */

#ifndef PCSIM_WORKLOAD_SUITE_HH
#define PCSIM_WORKLOAD_SUITE_HH

#include <memory>
#include <string>
#include <vector>

#include "src/workload/workload.hh"

namespace pcsim
{

/** Names in the paper's order: Barnes, Ocean, Em3D, LU, CG, MG,
 *  Appbt. */
std::vector<std::string> suiteNames();

/** The serving family's names, in sweep order: KVServe, WorkQueue,
 *  RCU, PubSub. */
std::vector<std::string> servingNames();

/** All runnable workload names: the Table 2 suite, the directed micro
 *  patterns ("PCmicro", "Migratory", "Random"), and the serving
 *  family. */
std::vector<std::string> workloadNames();

/** Case-insensitive canonicalization ("em3d" -> "Em3D", "micro" ->
 *  "PCmicro"); returns "" for unknown names. */
std::string canonicalWorkload(const std::string &name);

/**
 * @p count scaled by @p scale, truncated, and at least @p floor: how
 * makeWorkload sizes a run.
 * @throws std::invalid_argument naming @p workload and @p scale when
 *         the scaled count lies outside 0..UINT32_MAX, where
 *         converting it to unsigned would be undefined.
 */
unsigned scaledCount(const std::string &workload, unsigned count,
                     double scale, unsigned floor);

/**
 * Instantiate a workload by any canonicalWorkload() spelling.
 * @param scale shrinks/grows its iteration count (1.0 = repo
 *        default), which stays at least 4 for the suite and 1 for the
 *        others.
 * @throws std::invalid_argument for an unknown name (the runner turns
 *         this into a failed job instead of exiting), and as
 *         scaledCount does.
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       unsigned num_cpus,
                                       double scale = 1.0);

} // namespace pcsim

#endif // PCSIM_WORKLOAD_SUITE_HH
