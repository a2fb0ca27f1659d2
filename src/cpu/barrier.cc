#include "src/cpu/barrier.hh"

#include "src/protocol/hub.hh"
#include "src/sim/logging.hh"

namespace pcsim
{

BarrierDriver::BarrierDriver(std::vector<Hub *> hubs, Addr base,
                             std::uint32_t line_bytes, Tick spin_delay)
    : _hubs(std::move(hubs)),
      _base(base),
      _lineBytes(line_bytes),
      _spinDelay(spin_delay),
      _cpus(_hubs.size())
{
    if (_hubs.empty())
        fatal("barrier driver needs at least one CPU");
}

Addr
BarrierDriver::regionBytes() const
{
    return (_hubs.size() + 1) * static_cast<Addr>(_lineBytes);
}

void
BarrierDriver::arrive(unsigned cpu, std::function<void()> done)
{
    CpuState &c = _cpus.at(cpu);
    ++c.gen;
    c.done = std::move(done);

    if (_hubs.size() == 1) {
        // Degenerate single-CPU system.
        cpuPassed(cpu);
        return;
    }

    if (cpu == 0) {
        // Master: first post its own arrival implicitly by starting to
        // collect the slaves' arrival flags.
        c.nextSlave = 1;
        masterCollect(cpu);
    } else {
        // Slave: publish arrival (one write), then spin on release.
        _hubs[cpu]->cpuAccess(/*is_write=*/true, arrivalLine(cpu),
                              [this, cpu](Version) {
                                  pollUntil(cpu, releaseLine(),
                                            &BarrierDriver::cpuPassed);
                              });
    }
}

void
BarrierDriver::masterCollect(unsigned cpu)
{
    CpuState &c = _cpus[cpu];
    if (c.nextSlave >= _hubs.size()) {
        // Everyone arrived: publish the release (one write), then the
        // master itself may pass.
        _hubs[cpu]->cpuAccess(/*is_write=*/true, releaseLine(),
                              [this, cpu](Version) { cpuPassed(cpu); });
        return;
    }
    pollUntil(cpu, arrivalLine(c.nextSlave++),
              &BarrierDriver::masterCollect);
}

void
BarrierDriver::pollUntil(unsigned cpu, Addr line,
                         void (BarrierDriver::*then)(unsigned))
{
    CpuState &c = _cpus[cpu];
    c.pollLine = line;
    c.then = then;
    poll(cpu);
}

void
BarrierDriver::poll(unsigned cpu)
{
    _hubs[cpu]->cpuAccess(/*is_write=*/false, _cpus[cpu].pollLine,
                          [this, cpu](Version v) { polled(cpu, v); });
}

void
BarrierDriver::polled(unsigned cpu, Version v)
{
    CpuState &c = _cpus[cpu];
    if (v >= c.gen) {
        (this->*c.then)(cpu);
        return;
    }
    // Stale: park until the flag changes, or re-poll after the spin
    // delay when the next poll would not be a plain L1 hit.
    Hub &hub = *_hubs[cpu];
    if (hub.parkSpin(c.pollLine, v, _spinDelay,
                     [this, cpu](Version pv) { polled(cpu, pv); }))
        return;
    hub.eventQueue().scheduleIn(_spinDelay, [this, cpu]() { poll(cpu); });
}

void
BarrierDriver::cpuPassed(unsigned cpu)
{
    if (++_passedCount == _hubs.size()) {
        _passedCount = 0;
        ++_gensDone;
        if (_onGeneration)
            _onGeneration(_gensDone, _hubs[cpu]->eventQueue().curTick());
    }
    std::function<void()> done = std::move(_cpus[cpu].done);
    done();
}

} // namespace pcsim
