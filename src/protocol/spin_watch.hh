/**
 * @file
 * Barrier-spin fast-forward: the elided poll chain of a parked
 * spinner (DESIGN.md, "Barrier spin fast-forward").
 *
 * A barrier spinner polls its flag line. Each poll at tick g is an L1
 * read hit that completes at g + hit; a stale completion schedules
 * the next poll spinDelay later. While the flag stays in the L1 at
 * the version the last poll returned, every further poll returns that
 * same stale version, so the hub parks the spinner on a SpinWatch
 * instead and queues no event. The chain stays virtual, on its
 * original grid (T = hit + spinDelay):
 *
 *   poll k        at t0 + k*T        scheduled by completion k-1
 *   completion k  at t0 + k*T + hit  scheduled by poll k
 *
 * and each of its events keeps the EventOrder it would have carried.
 * Only a delivery for the flag line at this node can change what a
 * poll returns, so Hub::handleMessage wakes the watch before
 * dispatching one: the chain events ordered before the delivery have
 * run (their polls are credited as L1 hits) and the first one that
 * has not is re-inserted with EventQueue::scheduleAsIf at its exact
 * position among same-tick events.
 */

#ifndef PCSIM_PROTOCOL_SPIN_WATCH_HH
#define PCSIM_PROTOCOL_SPIN_WATCH_HH

#include <cstdint>

#include "src/cache/access_callback.hh"
#include "src/sim/event_queue.hh"
#include "src/sim/types.hh"

namespace pcsim
{

/** One node's parked barrier spinner (at most one: one CPU per node). */
class SpinWatch
{
  public:
    /** Where a woken chain continues. */
    struct Resume
    {
        /** Polls that ran before the wake and are not yet credited. */
        std::uint64_t polls = 0;
        /** Resume at a completion whose poll already ran (it delivers
         *  @c version), else at a poll. */
        bool completion = false;
        Tick when = 0;
        EventOrder order;
        Version version = 0;
        /** What every poll's completion calls. */
        AccessCallback onPoll;
    };

    bool armed() const { return _armed; }
    bool watching(Addr line) const { return _armed && _line == line; }
    Addr line() const { return _line; }

    /**
     * Park a spinner whose next poll of @p line would run at
     * @p first_poll with order @p first_order; every poll reads
     * version @p v until woken.
     */
    void arm(Addr line, Version v, Tick first_poll,
             EventOrder first_order, Tick hit, Tick spin_delay,
             AccessCallback on_poll);

    /** Polls at ticks below @p boundary not yet credited; they count
     *  as credited from now on (the generation-1 stats reset). */
    std::uint64_t settle(Tick boundary);

    /** Stop the chain at the executing event (@p now,
     *  @p executing) and disarm. */
    Resume wake(Tick now, EventOrder executing);

  private:
    Tick pollTick(std::uint64_t k) const { return _t0 + k * _period; }
    EventOrder pollOrder(std::uint64_t k) const;
    EventOrder doneOrder(std::uint64_t k) const;

    bool _armed = false;
    Addr _line = 0;
    Version _version = 0;
    Tick _t0 = 0;
    EventOrder _first;
    Tick _hit = 0;
    Tick _spinDelay = 0;
    Tick _period = 0;
    /** Polls 0 .. _credited-1 are already in the stats. */
    std::uint64_t _credited = 0;
    AccessCallback _onPoll;
};

} // namespace pcsim

#endif // PCSIM_PROTOCOL_SPIN_WATCH_HH
