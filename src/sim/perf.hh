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
 */

#ifndef PCSIM_SIM_PERF_HH
#define PCSIM_SIM_PERF_HH

#include <cstdint>

namespace pcsim
{

/**
 * Every RunPerf counter, named once, in the results CSV's column
 * order: X(name, timingOnly). It declares the members and fills
 * runPerfCounters. The default JSON carries the counters whose
 * timingOnly is false, in this order; a --timing document appends the
 * rest, then the wall-clock rates. The timing-only ones are
 * deterministic too, but schemaVersion 3 moved them behind --timing,
 * and moving them back would change every committed golden document.
 */
#define PCSIM_RUN_PERF_COUNTERS(X)                                        \
    /* Event kernel (EventQueue) counters, whole run. */                  \
    X(eventsExecuted, false)                                              \
    X(eventsScheduled, false)                                             \
    X(peakQueueDepth, true)                                               \
    /* Callbacks stored in the event's inline buffer (zero-alloc), and    \
       those that fell back to a heap allocation. */                      \
    X(inlineCallbacks, false)                                             \
    X(heapCallbacks, false)                                               \
    /* Events scheduled 4096 or more ticks ahead of the scheduling        \
       tick: they wait in the overflow heap instead of the calendar       \
       ring (EventQueue's rolling horizon). Then the tick advances that   \
       migrated overflow events into the ring (the name predates the      \
       rolling horizon, when it counted aligned 4096-tick window          \
       switches). */                                                      \
    X(overflowEvents, true)                                               \
    X(windowAdvances, true)                                               \
    /* Message pool counters. */                                          \
    X(poolAcquires, false)                                                \
    X(poolReuses, true)                                                   \
    /* Final simulated time of the run. */                                \
    X(simTicks, false)

/** Per-run kernel + pool telemetry. */
struct RunPerf
{
#define PCSIM_MEMBER(name, timing_only) std::uint64_t name = 0;
    PCSIM_RUN_PERF_COUNTERS(PCSIM_MEMBER)
#undef PCSIM_MEMBER

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

/** One RunPerf counter: its name, member, and whether only --timing
 *  documents carry it. */
struct RunPerfCounter
{
    const char *name;
    std::uint64_t RunPerf::*field;
    bool timingOnly;
};

/** Every RunPerf counter, in CSV column order. */
inline constexpr RunPerfCounter runPerfCounters[] = {
#define PCSIM_ROW(name, timing_only) {#name, &RunPerf::name, timing_only},
    PCSIM_RUN_PERF_COUNTERS(PCSIM_ROW)
#undef PCSIM_ROW
};

#undef PCSIM_RUN_PERF_COUNTERS

} // namespace pcsim

#endif // PCSIM_SIM_PERF_HH
