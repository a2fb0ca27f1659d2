/**
 * @file
 * Performance telemetry for the simulation kernel.
 *
 * RunPerf aggregates, per simulation run, the kernel's hot-path
 * counters (events executed/scheduled, queue depth, callback storage
 * classes, calendar-queue overflow traffic), the message-pool
 * recycling counters, and host wall-clock time. Every counter is a
 * pure function of the simulated machine + workload, byte-identical
 * across hosts and thread counts; only wallSeconds is host noise.
 * Serialization keeps the queue-shape counters (peakQueueDepth,
 * overflowEvents, windowAdvances, poolReuses) with the timing fields,
 * out of the default documents (see src/runner/results.hh).
 */

#ifndef PCSIM_SIM_PERF_HH
#define PCSIM_SIM_PERF_HH

#include <cstdint>

#include "src/sim/types.hh"

namespace pcsim
{

/** Per-run kernel + pool telemetry. */
struct RunPerf
{
    // Event kernel (EventQueue) counters, whole run.
    std::uint64_t eventsExecuted = 0;
    std::uint64_t eventsScheduled = 0;
    std::uint64_t peakQueueDepth = 0;
    /** Callbacks stored in the event's inline buffer (zero-alloc). */
    std::uint64_t inlineCallbacks = 0;
    /** Callbacks that fell back to a heap allocation. */
    std::uint64_t heapCallbacks = 0;
    /** Events scheduled 4096 or more ticks ahead of the scheduling
     *  tick: they wait in the overflow heap instead of the calendar
     *  ring (EventQueue's rolling horizon). */
    std::uint64_t overflowEvents = 0;
    /** Tick advances that migrated overflow events into the ring (the
     *  name predates the rolling horizon, when it counted aligned
     *  4096-tick window switches). */
    std::uint64_t windowAdvances = 0;

    // Message pool counters.
    std::uint64_t poolAcquires = 0;
    std::uint64_t poolReuses = 0;

    /** Final simulated time of the run. */
    Tick simTicks = 0;

    /** Host wall-clock seconds (volatile across hosts/runs). */
    double wallSeconds = 0.0;

    double
    eventsPerSec() const
    {
        return wallSeconds > 0 ? double(eventsExecuted) / wallSeconds
                               : 0.0;
    }

    double
    ticksPerSec() const
    {
        return wallSeconds > 0 ? double(simTicks) / wallSeconds : 0.0;
    }
};

} // namespace pcsim

#endif // PCSIM_SIM_PERF_HH
