/**
 * @file
 * Machine configuration presets matching the paper's evaluated
 * systems (Table 1 plus the Figure 7 / Figure 8 variants).
 */

#ifndef PCSIM_SYSTEM_PRESETS_HH
#define PCSIM_SYSTEM_PRESETS_HH

#include <string>
#include <vector>

#include "src/system/system.hh"

namespace pcsim
{
namespace presets
{

/** Table 1 baseline: 16 nodes, 2 MB L2, no RAC / delegation. */
MachineConfig base(unsigned num_nodes = 16);

/** Baseline plus a RAC (victim cache only), Figure 7 "32K RAC". */
MachineConfig racOnly(std::size_t rac_bytes = 32 * 1024,
                      unsigned num_nodes = 16);

/**
 * Full mechanism: delegation + speculative updates.
 * Figure 7 evaluates {32, 1024} delegate entries x {32K, 1M} RAC.
 */
MachineConfig delegateUpdate(std::size_t delegate_entries,
                             std::size_t rac_bytes,
                             unsigned num_nodes = 16);

/** Delegation without speculative updates (Section 3.2: within 1% of
 *  base for most applications). */
MachineConfig delegationOnly(std::size_t delegate_entries = 32,
                             std::size_t rac_bytes = 32 * 1024,
                             unsigned num_nodes = 16);

/** Dragon-style write-update policy on the Table 1 machine. */
MachineConfig writeUpdate(unsigned num_nodes = 16);

/** Per-line adaptive update/invalidate hybrid on the Table 1
 *  machine. */
MachineConfig adaptiveHybrid(unsigned num_nodes = 16,
                             std::uint32_t threshold = 4);

/** The small (32-entry deledc + 32K RAC) configuration. */
inline MachineConfig
small(unsigned num_nodes = 16)
{
    return delegateUpdate(32, 32 * 1024, num_nodes);
}

/** The large (1K-entry deledc + 1M RAC) configuration. */
inline MachineConfig
large(unsigned num_nodes = 16)
{
    return delegateUpdate(1024, 1024 * 1024, num_nodes);
}

/** A named configuration for sweep harnesses. */
struct NamedConfig
{
    std::string name;
    MachineConfig cfg;
};

/** The six systems of Figure 7, in the paper's order. */
std::vector<NamedConfig> figure7Configs(unsigned num_nodes = 16);

/** The default node counts of the `scale` sweep: the paper's 16-node
 *  Altix up through a 1024-node machine. Every point uses exact
 *  sharer vectors; at the top sizes a real machine would run coarse
 *  vectors (see coarse()) -- the sweep keeps them exact so the
 *  protocol-behavior curves stay comparable. */
std::vector<unsigned> scaleNodeCounts();

/**
 * The three protocol stacks the `scale`, `serve`, `faults` and `qos`
 * sweeps compare at each machine size: base directory, delegation
 * only, and delegation + speculative updates (the paper's "small"
 * sizing).
 */
std::vector<NamedConfig> scaleConfigs(unsigned num_nodes);

/**
 * The `pcsim compare` bake-off roster: one configuration per
 * registered coherence policy (mesi-dir, delegation,
 * delegation-updates, write-update, adaptive-hybrid), all on the
 * Table 1 machine at @p num_nodes.
 */
std::vector<NamedConfig> compareConfigs(unsigned num_nodes);

/**
 * A coarse-sharing-vector variant: @p nodes_per_bit (power of two)
 * consecutive nodes share one directory bit, SGI-Origin style.
 */
MachineConfig coarse(const MachineConfig &m, unsigned nodes_per_bit);

/** A named fault-injection scenario (`pcsim faults --scenario`). */
struct NamedFaultScenario
{
    std::string name;
    FaultConfig faults;
};

/**
 * The standard fault scenarios: each single mechanism in isolation
 * (gray-links, ni-stalls, hotspot, dir-pressure) plus "storm", the
 * acceptance scenario combining gray links, NI stalls and
 * directory-cache pressure.
 */
std::vector<NamedFaultScenario> faultScenarios();

} // namespace presets
} // namespace pcsim

#endif // PCSIM_SYSTEM_PRESETS_HH
