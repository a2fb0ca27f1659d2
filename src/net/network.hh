/**
 * @file
 * The interconnect: message delivery with per-hop latency and hub port
 * (network interface) contention.
 *
 * Per Section 3.1 we do not model contention inside routers, but do
 * model hub port contention: each node's NI serializes injection and
 * ejection at a configurable bandwidth. Point-to-point ordering per
 * (src,dst) pair is preserved, which the protocol's writeback-race
 * handling relies on (see DESIGN.md).
 *
 * Messages with src == dst model hub-internal transfers (e.g. the
 * processor-side controller talking to the local directory): they are
 * delivered after a small local latency and are NOT counted as network
 * traffic.
 *
 * Timing model: injection is booked at the source NI when the message
 * is sent; the in-flight message is then filed in the destination
 * port's arrival run, kept sorted by (arrive, src, seq), and its
 * ejection is booked there at once, behind the entry before it. A
 * later send that arrives earlier is filed ahead and re-books the
 * entries behind it, so each booking depends only on the
 * *content-ordered* arrival sequence at that node -- never on the
 * order in which same-tick sends happened to execute. Each message
 * costs one delivery event, placed at the start of its arrival tick
 * (EventQueue::scheduleAt); a delivery whose booking moved later
 * re-files itself there.
 *
 * Per-node NI state lives in one cache-line-aligned Port record; see
 * DESIGN.md, "Hot-path data structures", for the port layout, the
 * sorted arrival run and its booking rule.
 */

#ifndef PCSIM_NET_NETWORK_HH
#define PCSIM_NET_NETWORK_HH

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/net/message.hh"
#include "src/net/topology.hh"
#include "src/sim/event_queue.hh"
#include "src/sim/pool.hh"
#include "src/sim/types.hh"

namespace pcsim
{

class FaultPlan;

/** Configuration for the interconnect. */
struct NetworkConfig
{
    /** Cycles per router hop (Table 1: 100 CPU cycles = 50 ns). */
    Tick hopLatency = 100;
    /** NI bandwidth in bytes per CPU cycle (16 B per 500 MHz hub
     *  cycle = 4 B per 2 GHz CPU cycle). */
    std::uint32_t niBytesPerCycle = 4;
    /** Hub-internal transfer latency for src == dst messages. */
    Tick localLatency = 16;
};

/**
 * Event-driven interconnect connecting all node hubs.
 */
class Network : public SimObject
{
  public:
    Network(EventQueue &eq, unsigned num_nodes, NetworkConfig cfg = {});

    /** Attach the hub that receives messages for @p node. */
    void registerHandler(NodeId node, MessageHandler *handler);

    /** Inject @p msg; it will be delivered to msg.dst's handler. */
    void send(const Message &msg);

    /** @name Pooled injection path
     *
     * Senders that build a message for immediate or deferred injection
     * can acquire pooled storage, fill it in place, and hand it back
     * via sendAcquired(). The delivery closure then captures only a
     * pointer (24 bytes instead of a by-value Message copy) and the
     * storage is recycled after the handler runs.
     */
    /// @{
    Message *acquireMessage() { return _messages.acquire(); }
    void releaseMessage(Message *pm) { _messages.release(pm); }
    /** Inject a message previously obtained from acquireMessage().
     *  Ownership passes to the network; storage is recycled after
     *  delivery. */
    void sendAcquired(Message *pm);
    /// @}

    /** @name Sharer side storage for Delegate and Undele
     *
     * Pooled like messages. A sender acquires a set, fills it and
     * stores the pointer in Message::sharers; the handler that
     * consumes the message releases it (see Message for the ownership
     * rule). Storage is not reset: the acquirer assigns the whole set.
     */
    /// @{
    SharerSet *acquireSharers() { return _sharers.acquire(); }
    void releaseSharers(SharerSet *s) { _sharers.release(s); }
    /// @}

    /** Message-pool recycling counters. */
    const Pool<Message>::Stats &poolStats() const
    {
        return _messages.stats();
    }

    const FatTreeTopology &topology() const { return _topo; }
    const NetworkConfig &config() const { return _cfg; }

    /** @name Fault injection (src/net/faults.hh).
     *
     * A run with faults enabled installs its FaultPlan here; the
     * network consults it for NI-stall windows and per-link extra
     * latency. Faults only add delay before the destination NI's
     * ejection booking, so per-(src,dst) ordering and losslessness
     * are preserved. Null (the default) is the fault-free fast path.
     */
    /// @{
    void setFaultPlan(const FaultPlan *plan);
    const FaultPlan *faultPlan() const { return _faults; }
    /** Remote messages that picked up any fault-induced delay. */
    std::uint64_t faultDelayedMessages() const
    {
        return _stats.faultDelayed;
    }
    /** Total fault-induced delay ticks across those messages. */
    std::uint64_t faultExtraTicks() const
    {
        return _stats.faultExtraTicks;
    }
    /// @}

    /** @name Traffic statistics (remote messages only). */
    /// @{
    std::uint64_t numMessages() const { return _stats.numMessages; }
    std::uint64_t numBytes() const { return _stats.numBytes; }
    std::uint64_t
    numByType(MsgType t) const
    {
        return _stats.perType[static_cast<std::size_t>(t)];
    }
    /// @}

    /** Zero the traffic counters at the stats-reset @p boundary
     *  (between events: every event before it has run, none at or
     *  after it). Fault delay is counted at delivery, for messages
     *  arriving at or after the boundary. */
    void
    resetStats(Tick boundary)
    {
        _stats = Stats{};
        _statsFrom = boundary;
    }

  private:
    /** One remote message in flight between injection and ejection,
     *  filed in its destination port's arrival run (48 bytes). */
    struct Arrival
    {
        Tick arrive;
        /** (src << 40) | per-source seq: orders exactly like
         *  (src, seq), which breaks same-tick arrival ties. */
        std::uint64_t key;
        Message *pm;
        /** Source-side fault delay (stall + gray-link), carried so
         *  the whole message counts once, at ejection. */
        Tick faultDelay : 63;
        /** Packet class, indexing _niOccupancy: 1 = data-carrying. */
        Tick data : 1;
        /** Booked delivery tick: ejection ends here. */
        Tick deliver;
        /** Send-order rank of this (node, arrive) group's first
         *  arrival: the delivery's same-tick tie-break. */
        std::uint64_t rank;

        /** Sorts after @p o in (arrive, src, seq) order. */
        bool
        after(const Arrival &o) const
        {
            return arrive != o.arrive ? arrive > o.arrive : key > o.key;
        }
    };
    static_assert(sizeof(Arrival) == 48, "arrival entries are 48 bytes");

    /**
     * One node's network interface. The first cache line holds
     * everything a send or a delivery touches, and the alignment
     * keeps neighbouring nodes' ports out of each other's lines.
     *
     * The arrival run holds the undelivered arrivals at this node in
     * run[head, size), sorted by (arrive, src, seq); run[0, head) is
     * the consumed prefix. Each entry's booked delivery tick follows
     * from the one before it (from ingressFree at the head), so the
     * ticks strictly increase along the run and the head is always
     * the next message to eject.
     */
    struct alignas(64) Port
    {
        MessageHandler *handler = nullptr;
        /** NI next-free ticks (egress = injection, ingress =
         *  ejection: the last delivered message's tick). */
        Tick egressFree = 0;
        Tick ingressFree = 0;
        /** Last per-source sequence number (ids are (src, seq), so
         *  numbering never depends on the global send order). */
        std::uint64_t seq = 0;
        std::uint32_t head = 0;
        std::uint32_t size = 0;
        std::uint32_t cap = 0;
        std::unique_ptr<Arrival[]> run;

        /** Fault runs with extra link latency only: last arrival tick
         *  per destination, to clamp arrivals monotone (see
         *  setFaultPlan). */
        std::unordered_map<NodeId, Tick> lastArrive;

        /** Make room for one more entry: compact the consumed prefix
         *  away, growing the buffer unless it is under half live. */
        void reserveOne();
    };

    /** Traffic counters; resetStats() starts a fresh copy. */
    struct Stats
    {
        std::uint64_t numMessages = 0;
        std::uint64_t numBytes = 0;
        std::uint64_t faultDelayed = 0;
        std::uint64_t faultExtraTicks = 0;
        std::array<std::uint64_t,
                   static_cast<std::size_t>(MsgType::NumMsgTypes)>
            perType{};
    };

    void insertArrival(NodeId dst, Arrival a);
    /** Delivery tick of @p e when the NI frees at @p free. */
    Tick book(NodeId dst, const Arrival &e, Tick free) const;
    void deliverArrival(NodeId dst, Message *pm);

    NetworkConfig _cfg;
    FatTreeTopology _topo;

    /** NI occupancy of a header-only [0] and a data [1] packet. */
    std::array<Tick, 2> _niOccupancy;

    std::vector<Port> _ports;

    /** Clamp per-(src,dst) arrivals monotone (Port::lastArrive). */
    bool _fifoClamp = false;

    Stats _stats;
    /** First arrival tick whose fault delay counts (resetStats). */
    Tick _statsFrom = 0;
    /** Next (node, arrive) group's rank: one per group, in send
     *  order, so same-tick deliveries keep a content order. */
    std::uint64_t _nextRank = 0;

    const FaultPlan *_faults = nullptr;

    /** Recycled message and sharer storage. */
    Pool<Message> _messages;
    Pool<SharerSet> _sharers;
};

} // namespace pcsim

#endif // PCSIM_NET_NETWORK_HH
