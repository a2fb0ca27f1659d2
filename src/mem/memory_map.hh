/**
 * @file
 * Global address -> home node mapping with SGI first-touch placement.
 *
 * The first node to touch a page becomes its home (Section 3.2: "Data
 * placement is done by SGI's first-touch policy").
 */

#ifndef PCSIM_MEM_MEMORY_MAP_HH
#define PCSIM_MEM_MEMORY_MAP_HH

#include <bit>
#include <cstdint>

#include "src/sim/flat_map.hh"
#include "src/sim/logging.hh"
#include "src/sim/types.hh"

namespace pcsim
{

/**
 * Maps pages of the simulated physical address space to home nodes.
 *
 * Page and line sizes are powers of two, so the page and interleave
 * indices are shifts; the placed-page table is a FlatMap.
 */
class MemoryMap
{
  public:
    MemoryMap(unsigned num_nodes, std::uint32_t page_bytes = 16 * 1024)
        : _numNodes(num_nodes),
          _pageBytes(page_bytes),
          _pageShift(static_cast<unsigned>(std::countr_zero(page_bytes)))
    {
        if (num_nodes == 0)
            fatal("memory map needs nodes");
        if (num_nodes >= invalidNode)
            fatal("memory map: %u nodes exceed the NodeId range",
                  num_nodes);
        if (!isPowerOfTwo(page_bytes))
            fatal("memory map page size %u is not a power of two",
                  page_bytes);
    }

    std::uint32_t pageBytes() const { return _pageBytes; }

    /**
     * Declare [base, base + size) line-interleaved: line i of the
     * region is homed at node i % numNodes, independent of touch
     * order. The System uses this for the barrier flag region, whose
     * lines all share one page: per-page first-touch would pile every
     * CPU's flag onto one home (a synchronization hot spot), and the
     * winning toucher would depend on event timing. Interleaving is
     * the content-determined analog of each CPU first-touching its
     * own flag line -- flag k lands on node k.
     */
    void
    setInterleavedRegion(Addr base, Addr size, std::uint32_t line_bytes)
    {
        if (!isPowerOfTwo(line_bytes))
            fatal("interleaved region line size %u is not a power of two",
                  line_bytes);
        _ilBase = base;
        _ilSize = size;
        _ilLineShift = static_cast<unsigned>(std::countr_zero(line_bytes));
    }

    /**
     * Home node of @p addr; @p toucher claims unplaced pages under
     * first-touch.
     */
    NodeId
    homeOf(Addr addr, NodeId toucher)
    {
        if (addr - _ilBase < _ilSize)
            return nodeOf((addr - _ilBase) >> _ilLineShift);
        const Addr page = addr >> _pageShift;
        if (_frozen) {
            const NodeId *home = _pages.find(page);
            if (!home)
                panic("homeOf: page of 0x%llx touched after the map "
                      "was frozen (pre-placement missed it)",
                      (unsigned long long)addr);
            return *home;
        }
        return *_pages.tryEmplace(page, toucher).first;
    }

    /** Home of an already-placed page (panics if unplaced). */
    NodeId
    homeOf(Addr addr) const
    {
        if (addr - _ilBase < _ilSize)
            return nodeOf((addr - _ilBase) >> _ilLineShift);
        const NodeId *home = _pages.find(addr >> _pageShift);
        if (!home)
            panic("homeOf: page of 0x%llx not placed",
                  (unsigned long long)addr);
        return *home;
    }

    /**
     * Forbid further first-touch inserts. The System freezes the map
     * after deterministic trace-based pre-placement, which checks
     * that pre-placement was complete: a touch of an unplaced page
     * afterwards is a pre-placement bug and panics.
     */
    void freeze() { _frozen = true; }
    bool frozen() const { return _frozen; }

  private:
    /** Node @p i of a round-robin sequence (interleaved lines). */
    NodeId
    nodeOf(Addr i) const
    {
        return static_cast<NodeId>(i % _numNodes);
    }

    unsigned _numNodes;
    std::uint32_t _pageBytes;
    unsigned _pageShift;
    /** Line-interleaved region (size 0 = none); the subtraction in
     *  homeOf wraps for addr < base, making the range check one
     *  compare. */
    Addr _ilBase = 0;
    Addr _ilSize = 0;
    unsigned _ilLineShift = 0;
    bool _frozen = false;
    FlatMap<Addr, NodeId> _pages;
};

} // namespace pcsim

#endif // PCSIM_MEM_MEMORY_MAP_HH
