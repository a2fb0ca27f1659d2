#include "src/protocol/spin_watch.hh"

#include <utility>

#include "src/sim/logging.hh"

namespace pcsim
{

void
SpinWatch::arm(Addr line, Version v, Tick first_poll,
               EventOrder first_order, Tick hit, Tick spin_delay,
               AccessCallback on_poll)
{
    if (_armed)
        panic("spin watch on 0x%llx armed twice",
              (unsigned long long)line);
    _armed = true;
    _line = line;
    _version = v;
    _t0 = first_poll;
    _first = first_order;
    _hit = hit;
    _spinDelay = spin_delay;
    _period = hit + spin_delay;
    _credited = 0;
    _onPoll = std::move(on_poll);
}

EventOrder
SpinWatch::pollOrder(std::uint64_t k) const
{
    if (k == 0)
        return _first;
    // Scheduled by completion k-1 (spinDelay before the poll), which
    // poll k-1 had scheduled at its own tick.
    return {EventQueue::appendKey(pollTick(k) - _spinDelay, false),
            EventQueue::appendKey(pollTick(k - 1), false)};
}

EventOrder
SpinWatch::doneOrder(std::uint64_t k) const
{
    return {EventQueue::appendKey(pollTick(k), false), pollOrder(k).key};
}

std::uint64_t
SpinWatch::settle(Tick boundary)
{
    const std::uint64_t ran =
        boundary <= _t0 ? 0 : (boundary - _t0 + _period - 1) / _period;
    if (ran <= _credited)
        return 0;
    const std::uint64_t n = ran - _credited;
    _credited = ran;
    return n;
}

SpinWatch::Resume
SpinWatch::wake(Tick now, EventOrder executing)
{
    // Did the chain event at (t, o) run before the executing one?
    const auto ranBefore = [&](Tick t, EventOrder o) {
        if (t != now)
            return t < now;
        // Equal orders fall back to schedule order, which the elided
        // chain no longer has: only a node-local delay equal to the
        // L1 hit latency can produce this. Never guess.
        if (o == executing)
            panic("spin watch on 0x%llx: elided event at tick %llu ties "
                  "the waking event's order (%llu, %llu)",
                  (unsigned long long)_line, (unsigned long long)t,
                  (unsigned long long)o.key,
                  (unsigned long long)o.parent);
        return o < executing;
    };

    // First poll that has not run.
    std::uint64_t next = 0;
    if (now >= _t0) {
        const std::uint64_t k = (now - _t0) / _period;
        next = ranBefore(pollTick(k), pollOrder(k)) ? k + 1 : k;
    }

    Resume r;
    r.polls = next > _credited ? next - _credited : 0;
    r.version = _version;
    r.onPoll = std::move(_onPoll);
    if (next > 0 &&
        !ranBefore(pollTick(next - 1) + _hit, doneOrder(next - 1))) {
        r.completion = true;
        r.when = pollTick(next - 1) + _hit;
        r.order = doneOrder(next - 1);
    } else {
        r.when = pollTick(next);
        r.order = pollOrder(next);
    }
    _armed = false;
    return r;
}

} // namespace pcsim
