/**
 * @file
 * The benchmark suite of Table 2: factory for all seven applications.
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

/**
 * @p count scaled by @p scale, truncated, and at least @p floor: how
 * both workload registries size a run.
 * @throws std::invalid_argument naming @p workload and @p scale when
 *         the scaled count lies outside 0..UINT32_MAX, where
 *         converting it to unsigned would be undefined.
 */
unsigned scaledCount(const std::string &workload, unsigned count,
                     double scale, unsigned floor);

/**
 * Instantiate a benchmark by name.
 * @param scale shrinks/grows iteration counts (1.0 = repo default);
 *        use smaller values for quick sweeps.
 * @throws std::invalid_argument as scaledCount does.
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       unsigned num_cpus,
                                       double scale = 1.0);

} // namespace pcsim

#endif // PCSIM_WORKLOAD_SUITE_HH
