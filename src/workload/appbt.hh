/**
 * @file
 * Appbt (NAS Parallel Benchmarks BT) sharing-pattern workload.
 *
 * Block-tridiagonal 3D stencil: the cube is divided into subcubes,
 * one per processor, and Gaussian elimination sweeps run along each
 * of the three dimensions, exchanging whole faces of 5-variable cell
 * state with the facing neighbour. Faces are large: the per-consumer
 * pushed working set exceeds a 32 KB RAC, which is why Appbt is the
 * RAC-size-limited application (Figure 12).
 *
 * Paper problem size: 16*16*16 nodes, 60 timesteps.
 */

#ifndef PCSIM_WORKLOAD_APPBT_HH
#define PCSIM_WORKLOAD_APPBT_HH

#include <array>

#include "src/workload/workload.hh"

namespace pcsim
{

/** Appbt generator parameters. */
struct AppbtParams
{
    unsigned cubeDim = 48;   ///< grid points per edge
    unsigned vars = 5;       ///< variables per point
    unsigned iterations = 14;
    unsigned thinkPerLine = 38;
    Addr base = 0x40000000ull;
    std::uint32_t lineBytes = 128;
    /** Processor grid (must multiply to the CPU count). */
    std::array<unsigned, 3> procs = {4, 2, 2};
};

/** Build the Appbt trace. */
class AppbtWorkload : public TraceWorkload
{
  public:
    /** @throws std::invalid_argument when p.procs does not multiply
     *  to @p num_cpus. */
    explicit AppbtWorkload(unsigned num_cpus, AppbtParams p = {});

    std::string paperProblemSize() const override
    {
        return "16*16*16 nodes, 60 timesteps";
    }
    std::string scaledProblemSize() const override;

  private:
    /** Lines of the face of @p cpu that points along dimension @p dim
     *  (both directions use the same storage: one produced face per
     *  dimension per subcube). */
    unsigned faceLines(unsigned dim) const;
    Addr faceLine(unsigned cpu, unsigned dim, unsigned l) const;

    /** CPU at processor-grid coordinates. */
    unsigned cpuAt(unsigned x, unsigned y, unsigned z) const;

    AppbtParams _p;
};

} // namespace pcsim

#endif // PCSIM_WORKLOAD_APPBT_HH
