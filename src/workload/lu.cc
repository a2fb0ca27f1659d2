#include "src/workload/lu.hh"

#include <sstream>

namespace pcsim
{

LuWorkload::LuWorkload(unsigned num_cpus, LuParams p)
    : TraceWorkload("LU", num_cpus), _p(p)
{
    // Init: first-touch own boundary and interior data.
    for (unsigned cpu = 0; cpu < num_cpus; ++cpu) {
        auto &t = cpuTrace(cpu);
        for (unsigned r = 0; r < _p.rows; ++r) {
            t.push_back(MemOp::write(boundaryLine(cpu, r)));
            for (unsigned l = 0; l < _p.interiorLines; ++l)
                t.push_back(MemOp::write(interiorLine(cpu, r, l)));
        }
        t.push_back(MemOp::barrier());
    }

    // SSOR sweeps. The consume phase reads the left neighbour's
    // boundary column (produced last sweep) and relaxes the interior;
    // after a barrier the produce phase writes this sweep's boundary
    // column. The phase split models the sweep's data dependence and
    // keeps boundary lines on a W (R)+ W (R)+ pattern.
    for (unsigned it = 0; it < _p.iterations; ++it) {
        for (unsigned cpu = 0; cpu < num_cpus; ++cpu) {
            auto &t = cpuTrace(cpu);
            for (unsigned r = 0; r < _p.rows; ++r) {
                if (cpu > 0)
                    t.push_back(MemOp::read(boundaryLine(cpu - 1, r)));
                // Interior relaxation (all local).
                const unsigned l = r % _p.interiorLines;
                t.push_back(MemOp::read(interiorLine(cpu, r, l)));
                t.push_back(MemOp::think(_p.thinkPerRow));
                t.push_back(MemOp::write(interiorLine(cpu, r, l)));
            }
            t.push_back(MemOp::barrier());
            for (unsigned r = 0; r < _p.rows; ++r)
                t.push_back(MemOp::write(boundaryLine(cpu, r)));
            t.push_back(MemOp::barrier());
        }
    }
}

Addr
LuWorkload::boundaryLine(unsigned cpu, unsigned row) const
{
    return _p.base + (static_cast<Addr>(cpu) * _p.rows + row) *
                         _p.lineBytes;
}

Addr
LuWorkload::interiorLine(unsigned cpu, unsigned row, unsigned l) const
{
    const Addr region = _p.base + 0x1000000ull;
    const Addr per_cpu =
        static_cast<Addr>(_p.rows) * _p.interiorLines * _p.lineBytes;
    (void)row;
    return region + cpu * per_cpu + l * _p.lineBytes;
}

std::string
LuWorkload::scaledProblemSize() const
{
    std::ostringstream os;
    os << _p.rows << "-row wavefront, " << _p.iterations << " sweeps";
    return os.str();
}

} // namespace pcsim
