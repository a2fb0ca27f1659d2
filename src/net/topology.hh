/**
 * @file
 * NUMALink-4-style fat-tree topology.
 *
 * Non-leaf routers have eight children (Section 3.1). For the default
 * 16-node system that means two leaf routers under one root: traffic
 * between nodes on the same leaf router crosses 1 router hop, traffic
 * across leaves crosses 2. Latency per hop is configurable (Table 1:
 * 100 processor cycles = 50 ns at 2 GHz; Figure 10 sweeps 25-200 ns).
 */

#ifndef PCSIM_NET_TOPOLOGY_HH
#define PCSIM_NET_TOPOLOGY_HH

#include <array>
#include <bit>
#include <cstdint>

#include "src/sim/logging.hh"
#include "src/sim/types.hh"

namespace pcsim
{

/** Fat tree over @c numNodes leaves; power-of-two radix, 8 by default. */
class FatTreeTopology
{
  public:
    explicit FatTreeTopology(unsigned num_nodes, unsigned radix = 8)
        : _numNodes(num_nodes), _radix(radix)
    {
        if (num_nodes == 0)
            fatal("topology needs at least one node");
        if (num_nodes >= invalidNode)
            fatal("topology: %u leaves exceed the NodeId range",
                  num_nodes);
        if (radix < 2 || !isPowerOfTwo(radix))
            fatal("router radix %u must be a power of two >= 2", radix);
        // Any leaf count is legal, not just powers of the radix: a
        // partially filled last router level simply leaves ports
        // unused, and hops() only ever compares id bits.
        // Depth of the tree: number of router levels needed so that
        // radix^depth >= numNodes.
        _depth = 1;
        std::uint64_t reach = _radix;
        while (reach < _numNodes) {
            reach *= _radix;
            ++_depth;
        }
        // Radix 2^k groups ids by their bits above k * level, so the
        // common ancestor of src and dst sits ceil(w / k) levels up,
        // w = bit_width(src ^ dst).
        const unsigned k = static_cast<unsigned>(std::countr_zero(_radix));
        for (unsigned w = 0; w < _hopsByWidth.size(); ++w)
            _hopsByWidth[w] = static_cast<std::uint8_t>((w + k - 1) / k);
    }

    unsigned numNodes() const { return _numNodes; }
    unsigned radix() const { return _radix; }
    unsigned depth() const { return _depth; }

    /**
     * Number of router-to-router / node-to-router hops a message
     * traverses from @p src to @p dst. Local delivery is 0 hops;
     * nodes under the same leaf router are 1 hop apart; each extra
     * tree level adds 1 hop (up through the common ancestor).
     */
    unsigned
    hops(NodeId src, NodeId dst) const
    {
        return _hopsByWidth[static_cast<unsigned>(
            std::bit_width(static_cast<unsigned>(src ^ dst)))];
    }

    /** hops() by definition: divide both ids by the radix until they
     *  meet. The reference the tests hold hops()' table to. */
    unsigned
    hopsByDivision(NodeId src, NodeId dst) const
    {
        if (src == dst)
            return 0;
        unsigned level = 1;
        std::uint64_t a = src / _radix;
        std::uint64_t b = dst / _radix;
        while (a != b) {
            a /= _radix;
            b /= _radix;
            ++level;
        }
        return level;
    }

    /** Largest hop count possible in this topology. */
    unsigned maxHops() const { return _depth; }

  private:
    unsigned _numNodes;
    unsigned _radix;
    unsigned _depth;
    /** Hops indexed by bit_width(src ^ dst): hops() is one table
     *  load instead of a division loop. */
    std::array<std::uint8_t, 33> _hopsByWidth{};
};

} // namespace pcsim

#endif // PCSIM_NET_TOPOLOGY_HH
