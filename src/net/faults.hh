/**
 * @file
 * Deterministic fault injection for the interconnect and the home
 * directory.
 *
 * A FaultPlan perturbs a run WITHOUT violating the lossless
 * point-to-point-ordered network contract the protocol relies on
 * (see DESIGN.md "Fault model & robustness"): faults only ADD latency
 * (gray links, NI stalls, hot-spot bursts) or shrink home-side
 * resources (directory-cache pressure). Nothing is dropped,
 * duplicated or reordered: extra per-link latency is applied before
 * ejection is serialized through the destination NI, whose next-free
 * bookkeeping is monotone in injection order, so same-(src,dst)
 * messages still deliver in order.
 *
 * Everything is derived from the per-job seed at construction (salted
 * hash per link/node plus per-entity window phases), so a faulted run
 * is bit-reproducible at any worker-thread count.
 */

#ifndef PCSIM_NET_FAULTS_HH
#define PCSIM_NET_FAULTS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/random.hh"
#include "src/sim/types.hh"

namespace pcsim
{

/**
 * Fault-injection knobs (ProtocolConfig::faults). All mechanisms are
 * windowed: an affected entity degrades for `duration` ticks out of
 * every `period`, with a deterministic per-entity phase so windows do
 * not align across the machine.
 */
struct FaultConfig
{
    /** Master switch; when false the plan is never built and runs are
     *  byte-identical to pre-fault builds. */
    bool enabled = false;

    /** @name Gray links: a fraction of ordered (src,dst) links gains
     *  extra wire latency during their degradation windows. */
    /// @{
    double grayLinkFraction = 0.0;
    Tick grayExtraLatency = 0;
    Tick grayPeriod = 40000;
    Tick grayDuration = 12000;
    /// @}

    /** @name NI stalls: a fraction of nodes periodically pauses its
     *  network interface (both injection and ejection). */
    /// @{
    double stallNodeFraction = 0.0;
    Tick stallPeriod = 50000;
    Tick stallDuration = 6000;
    /// @}

    /** @name Hot spot: congestion bursts targeting one home node --
     *  every message ejecting there pays extra latency during the
     *  window. invalidNode = pick the target from the seed. */
    /// @{
    NodeId hotspotNode = invalidNode;
    Tick hotspotExtraLatency = 0;
    Tick hotspotPeriod = 30000;
    Tick hotspotDuration = 9000;
    /// @}

    /** @name Directory-cache pressure: during the window a home
     *  refuses directory-cache fills into sets already holding
     *  `dirPressureWays` entries (temporarily shrunk associativity),
     *  forcing NACK storms and local re-handle retries. 0 = off. */
    /// @{
    unsigned dirPressureWays = 0;
    Tick dirPressurePeriod = 60000;
    Tick dirPressureDuration = 15000;
    /// @}

    /** Any mechanism armed (independent of `enabled`)? */
    bool
    anyMechanism() const
    {
        return (grayLinkFraction > 0.0 && grayExtraLatency > 0) ||
               stallNodeFraction > 0.0 || hotspotExtraLatency > 0 ||
               dirPressureWays > 0;
    }

    /**
     * Sanity-check the knobs against the machine they will perturb.
     * @return "" when valid, else a description of the first problem.
     */
    std::string validateError(unsigned num_nodes,
                              std::size_t dir_cache_ways) const;
};

/**
 * The realized plan for one run: which links are gray, which nodes
 * stall, where the hot spot is, and every window phase. Pure
 * (side-effect-free) query methods keep the network and directory hot
 * paths free of RNG draws.
 */
class FaultPlan
{
  public:
    /** Build from @p cfg for a @p num_nodes machine; @p rng is a
     *  stream forked from the run's root seed. */
    FaultPlan(const FaultConfig &cfg, unsigned num_nodes, Rng rng);

    const FaultConfig &config() const { return _cfg; }

    /** Gray links or a hot spot configured (extraLatency can fire)? */
    bool
    anyLatencyFaults() const
    {
        return _grayThreshold != 0 || _cfg.hotspotExtraLatency != 0;
    }

    /** Extra wire latency for a message injected onto (src,dst) at
     *  @p now (gray-link window plus hot-spot window). */
    Tick extraLatency(NodeId src, NodeId dst, Tick now) const;

    /** Earliest tick >= @p at when @p node's NI is not stalled. */
    Tick stallClearTick(NodeId node, Tick at) const;

    /** Directory-cache fill limit for @p node at @p now: 0 = no
     *  pressure, else the temporarily shrunk effective way count. */
    unsigned dirWaysLimit(NodeId node, Tick now) const;

    /** The hot-spot target (invalidNode when the burst is off). */
    NodeId hotspotNode() const { return _hotspot; }

    /** Is the ordered link (src,dst) gray? */
    bool linkIsGray(NodeId src, NodeId dst) const;

  private:
    static bool inWindow(Tick now, Tick phase, Tick period,
                         Tick duration);
    static std::uint64_t mix64(std::uint64_t x);
    std::uint64_t linkHash(NodeId src, NodeId dst) const;

    FaultConfig _cfg;
    unsigned _numNodes;

    std::uint64_t _graySalt = 0;
    std::uint64_t _grayThreshold = 0; ///< fraction scaled to 2^64

    std::vector<std::uint8_t> _stalled; ///< per-node stall membership
    std::vector<Tick> _stallPhase;

    NodeId _hotspot = invalidNode;
    Tick _hotspotPhase = 0;

    std::vector<Tick> _dirPhase;
};

} // namespace pcsim

#endif // PCSIM_NET_FAULTS_HH
