/**
 * @file
 * Master/slave flag barrier executed as real coherence traffic.
 *
 * Layout (one line per flag; first-touch places each at its writer):
 *  - arrival line of CPU s: written by s once per barrier; read
 *    (spun on) by the master -> single-producer / single-consumer,
 *  - release line: written by the master once per barrier; spun on by
 *    all slaves -> single-producer / many-consumer.
 *
 * This is the OpenMP-style barrier structure that produces the
 * "reload flurry" of Section 3.2: the release write invalidates all
 * spinners, they re-read simultaneously, and the home NACKs requests
 * while the line is BUSY. With delegation + speculative updates the
 * release data is instead pushed into the spinners' RACs.
 *
 * Data values are line Versions: CPU s's arrival for generation g is
 * observed once its arrival line's version reaches g (each barrier
 * performs exactly one write per flag line).
 *
 * Both spin loops (the master collecting arrivals, slaves awaiting the
 * release) run through one poll-until-version helper. A stale poll
 * that would hit the L1 again parks on the CPU's hub instead of
 * re-polling (barrier-spin fast-forward, src/protocol/spin_watch.hh),
 * so a barrier that can never complete leaves the event queue empty.
 */

#ifndef PCSIM_CPU_BARRIER_HH
#define PCSIM_CPU_BARRIER_HH

#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "src/sim/types.hh"

namespace pcsim
{

class Hub;

/** Coordinates barrier episodes across all CPUs. */
class BarrierDriver
{
  public:
    /**
     * @param hubs       one hub per CPU (CPU i issues through hubs[i]).
     * @param base       address of the barrier flag region.
     * @param line_bytes coherence line size (flag spacing).
     * @param spin_delay cycles between spin polls.
     */
    BarrierDriver(std::vector<Hub *> hubs, Addr base,
                  std::uint32_t line_bytes, Tick spin_delay = 30);

    /** CPU @p cpu reached a barrier; @p done fires when it may pass. */
    void arrive(unsigned cpu, std::function<void()> done);

    /**
     * Invoked each time every CPU has passed generation @p gen.
     * @p max_pass_tick is the largest shard-local tick at which any
     * CPU passed -- a commutative max, so it is the same value no
     * matter which order the per-shard pass events were observed in
     * (the System derives the S-invariant stats-reset boundary from
     * it).
     */
    void
    setOnGeneration(
        std::function<void(std::uint64_t gen, Tick max_pass_tick)> fn)
    {
        _onGeneration = std::move(fn);
    }

    std::uint64_t generationsCompleted() const { return _gensDone; }

    /** Bytes of address space the flag region occupies. */
    Addr regionBytes() const;

  private:
    Addr arrivalLine(unsigned cpu) const
    {
        return _base + (1 + static_cast<Addr>(cpu)) * _lineBytes;
    }
    Addr releaseLine() const { return _base; }

    /** Per-CPU barrier episode state; only the CPU's own shard
     *  thread touches its entry. */
    struct CpuState
    {
        std::uint64_t gen = 0;
        std::function<void()> done;
        /** The line being polled and what to do once its version
         *  reaches gen. */
        Addr pollLine = 0;
        void (BarrierDriver::*then)(unsigned cpu) = nullptr;
        /** Master only: the slave whose arrival is being collected. */
        unsigned nextSlave = 0;
    };

    /** Master: collect the next slave's arrival, or release everyone
     *  once all have arrived. */
    void masterCollect(unsigned cpu);
    void cpuPassed(unsigned cpu);

    /** Poll @p line from @p cpu until its version reaches the CPU's
     *  generation, then call (this->*then)(cpu). */
    void pollUntil(unsigned cpu, Addr line,
                   void (BarrierDriver::*then)(unsigned));
    void poll(unsigned cpu);
    void polled(unsigned cpu, Version v);

    std::vector<Hub *> _hubs;
    Addr _base;
    std::uint32_t _lineBytes;
    Tick _spinDelay;

    std::vector<CpuState> _cpus;
    /** Guards the pass bookkeeping below: under the parallel kernel
     *  CPUs pass on their shard's worker thread. */
    std::mutex _passMutex;
    std::uint64_t _gensDone = 0;
    unsigned _passedCount = 0;
    Tick _maxPassTick = 0;
    std::function<void(std::uint64_t, Tick)> _onGeneration;
};

} // namespace pcsim

#endif // PCSIM_CPU_BARRIER_HH
