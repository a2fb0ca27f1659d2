/**
 * @file
 * Whole-machine assembly: N nodes (CPU + hub), interconnect, memory
 * map, barrier driver and the invariant checker, plus run-level
 * statistics gathering.
 */

#ifndef PCSIM_SYSTEM_SYSTEM_HH
#define PCSIM_SYSTEM_SYSTEM_HH

#include <memory>
#include <string>
#include <vector>

#include "src/cpu/barrier.hh"
#include "src/cpu/cpu.hh"
#include "src/mem/memory_map.hh"
#include "src/net/network.hh"
#include "src/protocol/checker.hh"
#include "src/protocol/config.hh"
#include "src/protocol/hub.hh"
#include "src/sim/event_queue.hh"
#include "src/sim/perf.hh"
#include "src/sim/stats.hh"
#include "src/verify/observer.hh"
#include "src/verify/trace.hh"
#include "src/workload/workload.hh"

namespace pcsim
{

/** Complete machine configuration. */
struct MachineConfig
{
    ProtocolConfig proto;
    NetworkConfig net;
    std::uint64_t seed = 1;
    std::uint32_t pageBytes = 16 * 1024;
    /** Base address of the barrier flag region (above workload data). */
    Addr barrierBase = 0xB0000000ull;
    Tick barrierSpinDelay = 30;
};

/** Aggregated results of one run (parallel phase only). */
struct RunResult
{
    std::string workload;
    std::string config;

    Tick cycles = 0; ///< parallel-phase execution time

    NodeStats nodes; ///< summed over all nodes

    std::uint64_t netMessages = 0;
    std::uint64_t netBytes = 0;
    std::uint64_t nackMessages = 0;
    std::uint64_t updateMessages = 0;

    /** Consumers-per-write for producer-consumer lines (Table 3):
     *  bucket i = writes that invalidated i consumer copies. */
    Histogram consumerHist{17};

    /** Kernel/pool telemetry for the whole run (init + parallel
     *  phases); wallSeconds is host-dependent, the rest deterministic. */
    RunPerf perf;

    /** Observed protocol transitions with counts (the coverage feed
     *  for `pcsim lint --coverage`). Empty unless the run had
     *  conformance checking enabled. */
    std::vector<verify::TransitionCount> conformance;

    /** @name Fault injection (src/net/faults.hh).
     *  Populated only when the run had faults enabled; gates the
     *  optional "retry" block in the results JSON. */
    /// @{
    bool faultsActive = false;
    std::uint64_t faultDelayedMessages = 0;
    std::uint64_t faultExtraTicks = 0;
    /// @}

    /** The run used an update-based policy (write-update / adaptive
     *  hybrid); gates the optional "policy" block in the results
     *  JSON. */
    bool updateBased = false;

    /** @name Fairness telemetry (src/protocol/arbiter.hh).
     *  The percentiles are the WORST single node's miss-latency
     *  percentile (per-node histograms, taken before the sum into
     *  `nodes`): the fairness question is how badly the unluckiest
     *  node fares, which a machine-wide histogram would average away.
     *  `arbitrationActive` (a non-default arbitration mode) gates the
     *  optional "fairness" JSON block together with `faultsActive`. */
    /// @{
    bool arbitrationActive = false;
    std::uint64_t missLatencyP50 = 0;
    std::uint64_t missLatencyP95 = 0;
    std::uint64_t missLatencyP99 = 0;
    /// @}

    std::uint64_t totalMisses() const
    {
        return nodes.localMisses + nodes.remoteMisses;
    }
};

/** A full simulated machine. */
class System
{
  public:
    explicit System(const MachineConfig &cfg);
    ~System();

    EventQueue &eventQueue() { return _eq; }
    Network &network() { return _net; }
    MemoryMap &memMap() { return _memMap; }
    CoherenceChecker &checker() { return _checker; }
    Hub &hub(unsigned i) { return *_hubs.at(i); }
    unsigned numNodes() const
    {
        return static_cast<unsigned>(_hubs.size());
    }
    BarrierDriver &barrier() { return *_barrier; }
    const MachineConfig &config() const { return _cfg; }

    /**
     * Execute @p workload to completion.
     *
     * Statistics are reset when barrier generation 1 completes (end of
     * the initialization phase), so the result covers the parallel
     * phase only. A final quiescent invariant check runs if the
     * checker is enabled.
     */
    RunResult run(Workload &workload, Tick max_ticks = maxTick);

    /** Zero all node and network statistics at the stats-reset
     *  @p boundary: every event before it has run, none at or after
     *  it. */
    void resetStats(Tick boundary);

  private:
    /** Trace-scan first-touch pre-placement + map freeze (see .cc). */
    void preplacePages(Workload &workload);

    /** Run events up to @p limit, applying a pending stats reset
     *  between events once every event before its boundary ran. */
    void drain(Tick limit);

    MachineConfig _cfg;
    EventQueue _eq;
    /** Per-line recent-message ring, feeding checker and conformance
     *  failure reports (null when both are disabled). */
    std::unique_ptr<verify::MessageTrace> _trace;
    /** Spec cross-checker; null unless conformanceEnabled. */
    std::unique_ptr<verify::TransitionObserver> _observer;
    CoherenceChecker _checker;
    MemoryMap _memMap;
    Network _net;
    /** Deterministic fault schedule; null for fault-free runs. */
    std::unique_ptr<FaultPlan> _faultPlan;
    std::vector<std::unique_ptr<Hub>> _hubs;
    std::unique_ptr<BarrierDriver> _barrier;
    std::vector<std::unique_ptr<Cpu>> _cpus;
    /** Consumers-per-write histogram every hub samples into. */
    Histogram _consumerHist{17};
    /** Boundary of the pending end-of-init stats reset (0 = none). */
    Tick _resetBoundary = 0;
    Tick _statsResetTick = 0;
};

/**
 * Convenience: build a machine, run the workload, return the result.
 * A fresh System is built per call so runs are independent.
 */
RunResult runWorkload(const MachineConfig &cfg, Workload &workload,
                      const std::string &config_name = "");

} // namespace pcsim

#endif // PCSIM_SYSTEM_SYSTEM_HH
