/**
 * @file
 * Workload abstraction: per-CPU streams of memory operations.
 *
 * Workloads model the sharing pattern of the paper's benchmarks
 * (Table 2): they emit reads/writes over a simulated shared address
 * space, think time for the compute between references, and barrier
 * synchronizations that are executed as real coherence traffic by the
 * BarrierDriver.
 *
 * Convention: every workload begins with an initialization phase (each
 * CPU first-touches its own data) terminated by the first barrier; the
 * System resets statistics when that barrier releases, so reported
 * numbers cover the parallel phase only (Section 3.2).
 */

#ifndef PCSIM_WORKLOAD_WORKLOAD_HH
#define PCSIM_WORKLOAD_WORKLOAD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/logging.hh"
#include "src/sim/random.hh"
#include "src/sim/types.hh"

namespace pcsim
{

/**
 * Fork the per-node RNG stream for @p node from a generator's (or the
 * machine's) root stream.
 *
 * Callers MUST fork in ascending node order starting at node 0: the
 * helper consumes exactly one fork() from @p root per call, which is
 * the sequence every pre-helper component used -- deriving streams any
 * other way would shift every downstream draw and break golden
 * byte-identity. The @p node argument documents intent at the call
 * site (and keeps callers honest about iteration order); it does not
 * enter the stream derivation.
 */
inline Rng
forkNodeRng(Rng &root, NodeId node)
{
    (void)node;
    return root.fork();
}

/**
 * One operation in a CPU's stream, in one 64-bit word: a 56-bit
 * payload (a Read/Write's address, a Think's cycles, 0 for a Barrier)
 * below the 8-bit kind. The streams are the largest single item of a
 * large run's heap, so an op's size is what they cost.
 */
struct MemOp
{
    enum class Kind : std::uint8_t
    {
        Read,
        Write,
        Think,
        Barrier,
    };

    /** Largest address an op carries. The generators stay far below
     *  it; the trace readers reject any address above it. */
    static constexpr Addr maxAddr = (Addr{1} << 56) - 1;

  private:
    std::uint64_t _payload : 56 = 0;

  public:
    Kind kind : 8 = Kind::Think;

    MemOp() = default;

    /** The address of a Read or Write. */
    Addr addr() const { return _payload; }
    /** The duration of a Think. */
    std::uint32_t cycles() const
    {
        return static_cast<std::uint32_t>(_payload);
    }

    static MemOp read(Addr a) { return {checkedAddr(a), Kind::Read}; }
    static MemOp write(Addr a) { return {checkedAddr(a), Kind::Write}; }
    static MemOp think(std::uint32_t c) { return {c, Kind::Think}; }
    static MemOp barrier() { return {0, Kind::Barrier}; }

  private:
    MemOp(std::uint64_t payload, Kind k) : _payload(payload), kind(k) {}

    static Addr
    checkedAddr(Addr a)
    {
        if (a > maxAddr)
            panic("op address 0x%llx exceeds 56 bits",
                  static_cast<unsigned long long>(a));
        return a;
    }
};
static_assert(sizeof(MemOp) == 8);

/** Abstract per-CPU operation source. */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual const std::string &name() const = 0;
    virtual unsigned numCpus() const = 0;

    /** Pull the next op for @p cpu; false when the stream is done. */
    virtual bool next(unsigned cpu, MemOp &op) = 0;

    /** Rewind all streams (for running multiple configurations). */
    virtual void reset() = 0;

    /** The paper's problem size (Table 2), for reporting. */
    virtual std::string paperProblemSize() const { return ""; }
    /** Our scaled problem size, for reporting. */
    virtual std::string scaledProblemSize() const { return ""; }

    /**
     * Full operation stream of @p cpu, never null. The System scans
     * these streams before a run to pre-compute first-touch page
     * placement (round-robin across CPUs by op index, the
     * schedule-independent equivalent of touch order), and `pcsim
     * trace record` writes them to its trace. A wrapper must forward
     * its inner workload's streams.
     */
    virtual const std::vector<MemOp> *cpuOps(unsigned cpu) const = 0;
};

/** Workload backed by pre-generated per-CPU traces. */
class TraceWorkload : public Workload
{
  public:
    TraceWorkload(std::string name, unsigned num_cpus)
        : _name(std::move(name)), _trace(num_cpus), _pos(num_cpus, 0)
    {
    }

    const std::string &name() const override { return _name; }
    unsigned numCpus() const override
    {
        return static_cast<unsigned>(_trace.size());
    }

    bool
    next(unsigned cpu, MemOp &op) override
    {
        auto &t = _trace.at(cpu);
        if (_pos[cpu] >= t.size())
            return false;
        op = t[_pos[cpu]++];
        return true;
    }

    /** Rewind all streams. Generation is over by the first reset
     *  (System::run's), so it also drops the streams' growth slack. */
    void
    reset() override
    {
        for (auto &p : _pos)
            p = 0;
        for (auto &t : _trace)
            t.shrink_to_fit();
    }

    const std::vector<MemOp> *
    cpuOps(unsigned cpu) const override
    {
        return &_trace.at(cpu);
    }

    /** Total operations across all CPUs (reporting). */
    std::size_t
    totalOps() const
    {
        std::size_t n = 0;
        for (const auto &t : _trace)
            n += t.size();
        return n;
    }

  protected:
    std::vector<MemOp> &cpuTrace(unsigned cpu) { return _trace.at(cpu); }

    std::string _name;
    std::vector<std::vector<MemOp>> _trace;
    std::vector<std::size_t> _pos;
};

} // namespace pcsim

#endif // PCSIM_WORKLOAD_WORKLOAD_HH
