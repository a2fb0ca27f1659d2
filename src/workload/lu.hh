/**
 * @file
 * LU (NAS Parallel Benchmarks) sharing-pattern workload.
 *
 * SSOR solver for the 3D Navier-Stokes equations. The 2D partition
 * assigns vertical column blocks to processors; during each sweep a
 * processor consumes the boundary column produced by its left
 * neighbour row by row (pipelined wavefront), giving stable
 * single-producer / single-consumer sharing on boundary data
 * (Table 3: 99.4% one consumer).
 *
 * Paper problem size: 16x16x16 nodes, 50 timesteps. Scaled default:
 * a 64-row wavefront over 16 column blocks.
 */

#ifndef PCSIM_WORKLOAD_LU_HH
#define PCSIM_WORKLOAD_LU_HH

#include "src/workload/workload.hh"

namespace pcsim
{

/** LU generator parameters. */
struct LuParams
{
    unsigned rows = 28;          ///< wavefront depth per sweep
    unsigned iterations = 24;    ///< SSOR sweeps
    unsigned interiorLines = 6;  ///< local lines updated per row
    unsigned thinkPerRow = 1300;
    Addr base = 0x18000000ull;
    std::uint32_t lineBytes = 128;
};

/** Build the LU trace. */
class LuWorkload : public TraceWorkload
{
  public:
    explicit LuWorkload(unsigned num_cpus, LuParams p = {});

    std::string paperProblemSize() const override
    {
        return "16*16*16 nodes, 50 timesteps";
    }
    std::string scaledProblemSize() const override;

  private:
    /** Boundary element (cpu, row): one line each (column stride
     *  exceeds the line size in the real layout). */
    Addr boundaryLine(unsigned cpu, unsigned row) const;
    Addr interiorLine(unsigned cpu, unsigned row, unsigned l) const;

    LuParams _p;
};

} // namespace pcsim

#endif // PCSIM_WORKLOAD_LU_HH
