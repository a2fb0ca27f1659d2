/**
 * @file
 * Per-line bounded message history for diagnostics.
 *
 * Every message a hub dispatches is recorded into a small ring per
 * line address. When the coherence checker or the conformance
 * observer reports a violation, the ring supplies the "last few
 * messages for this line" context that makes the failure actionable.
 */

#ifndef PCSIM_VERIFY_TRACE_HH
#define PCSIM_VERIFY_TRACE_HH

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>

#include "src/net/message.hh"
#include "src/sim/types.hh"

namespace pcsim::verify
{

/** Bounded per-line history of delivered messages. */
class MessageTrace
{
  public:
    /** One remembered delivery. */
    struct Record
    {
        Tick when = 0;
        MsgType type = MsgType::Nack;
        NodeId src = invalidNode;
        NodeId dst = invalidNode;
        NodeId requester = invalidNode;
        Version version = 0;
        std::uint64_t txnId = 0;
    };

    static constexpr std::size_t depth = 8;

    /** Remember @p msg as delivered at @p when. */
    void record(const Message &msg, Tick when);

    /** Multi-line human-readable dump of the ring for @p line
     *  (oldest first), or a placeholder when nothing was seen. */
    std::string format(Addr line) const;

  private:
    struct Ring
    {
        std::array<Record, depth> recs;
        std::size_t head = 0;  ///< next write position
        std::size_t count = 0; ///< valid records (<= depth)
    };

    std::unordered_map<Addr, Ring> _byLine;
};

} // namespace pcsim::verify

#endif // PCSIM_VERIFY_TRACE_HH
