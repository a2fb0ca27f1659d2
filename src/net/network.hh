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
 * Timing model (identical under the sequential and parallel kernels):
 * injection is booked at the source NI when the message is sent, on
 * the sender's shard thread; the in-flight message is then filed in
 * the destination port's arrival run, kept sorted by (arrive, src,
 * seq), and ejection is booked when the destination's phase-0 "drain"
 * event runs at the arrival tick. Ejection booking therefore depends
 * only on the *content-ordered* arrival sequence at that node -- never
 * on the global order sends happened to execute in -- which is what
 * makes the parallel kernel byte-identical to the sequential oracle.
 * Cross-shard sends park in per-(src-shard, dst-shard) channels that
 * the destination worker flushes into its ports at window barriers.
 *
 * Per-node NI state lives in one cache-line-aligned Port record that
 * only the node's own shard touches; see DESIGN.md, "Hot-path data
 * structures", for the port layout, the sorted arrival run and its
 * armed-iff-live drain invariant.
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
#include "src/sim/kernel.hh"
#include "src/sim/pool.hh"
#include "src/sim/stats.hh"
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

    /**
     * Route deliveries through a sharded kernel: per-node scheduling
     * moves to each node's shard queue, message storage and traffic
     * counters split into per-shard banks, and cross-shard sends are
     * exchanged at the kernel's window barriers. Without this call
     * the network behaves exactly as before on the single queue
     * passed to the constructor (tests drive it that way).
     */
    void attachKernel(SimKernel &kernel);

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
     * storage is recycled after the handler runs. Pools are per
     * shard: acquire takes from the calling shard's pool and release
     * returns to the calling shard's pool (slabs live until the
     * network dies, so cross-shard frees are safe). A sequential run
     * has one pool and never asks which shard is calling.
     */
    /// @{
    Message *acquireMessage() { return shardPools().messages.acquire(); }
    void releaseMessage(Message *pm) { shardPools().messages.release(pm); }
    /** Inject a message previously obtained from acquireMessage().
     *  Ownership passes to the network; storage is recycled after
     *  delivery. */
    void sendAcquired(Message *pm);
    /// @}

    /** @name Sharer side storage for Delegate and Undele
     *
     * Pooled per shard like messages. A sender acquires a set, fills
     * it and stores the pointer in Message::sharers; the handler that
     * consumes the message releases it (see Message for the ownership
     * rule). Storage is not reset: the acquirer assigns the whole set.
     */
    /// @{
    SharerSet *acquireSharers() { return shardPools().sharers.acquire(); }
    void releaseSharers(SharerSet *s) { shardPools().sharers.release(s); }
    /// @}

    /** Pool recycling counters summed across shards (acquire counts
     *  are content-determined; reuse counts are shard-layout
     *  dependent and only serialized under the timing opt-in). */
    Pool<Message>::Stats poolStats() const;

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
    std::uint64_t faultDelayedMessages() const;
    /** Total fault-induced delay ticks across those messages. */
    std::uint64_t faultExtraTicks() const;
    /// @}

    /** @name Traffic statistics (remote messages only).
     *
     * Counters accumulate into per-shard banks (send-side counters in
     * the sender's bank, ejection-side in the receiver's) and are
     * summed on read, so totals are independent of the shard layout.
     */
    /// @{
    std::uint64_t numMessages() const;
    std::uint64_t numBytes() const;
    std::uint64_t numLocalMessages() const;
    std::uint64_t numByType(MsgType t) const;
    Histogram hopHistogram() const;
    /** Remote messages that crossed a shard boundary (0 under the
     *  sequential kernel; host-telemetry, timing-gated). */
    std::uint64_t crossShardMessages() const;
    /// @}

    void resetStats();

    /** Drain every (src shard -> @p dst_shard) channel into the
     *  destination ports' arrival runs; runs on @p dst_shard's worker
     *  at a window barrier (the kernel's flush hook). */
    void flushShard(unsigned dst_shard);

  private:
    /** One remote message in flight between injection and ejection,
     *  filed in its destination port's arrival run (32 bytes). */
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

        /** Sorts after @p o in (arrive, src, seq) order. */
        bool
        after(const Arrival &o) const
        {
            return arrive != o.arrive ? arrive > o.arrive : key > o.key;
        }
    };
    static_assert(sizeof(Arrival) == 32, "arrival entries are 32 bytes");

    /**
     * One node's network interface. The first cache line holds
     * everything a send or a drain touches; only the node's own shard
     * ever reads or writes the record, and the alignment keeps
     * neighbouring nodes' ports out of each other's lines.
     *
     * The arrival run holds the in-flight arrivals at this node in
     * run[head, size), sorted by (arrive, src, seq); run[0, head) is
     * the consumed prefix. A drain is armed for tick T exactly when a
     * live entry has arrive == T.
     */
    struct alignas(64) Port
    {
        MessageHandler *handler = nullptr;
        /** The shard queue the node's events run on. */
        EventQueue *queue = nullptr;
        /** NI next-free ticks (egress = injection, ingress =
         *  ejection). */
        Tick egressFree = 0;
        Tick ingressFree = 0;
        /** Last per-source sequence number (ids are (src, seq), so
         *  numbering never depends on the global send order). */
        std::uint64_t seq = 0;
        std::uint32_t head = 0;
        std::uint32_t size = 0;
        std::uint32_t cap = 0;
        unsigned shard = 0;
        std::unique_ptr<Arrival[]> run;

        /** Fault runs with extra link latency only: last arrival tick
         *  per destination, to clamp arrivals monotone (see
         *  setFaultPlan). */
        std::unordered_map<NodeId, Tick> lastArrive;

        /** Make room for one more entry: compact the consumed prefix
         *  away, growing the buffer unless it is under half live. */
        void reserveOne();
    };

    /** Per-shard recycled storage. */
    struct ShardPools
    {
        Pool<Message> messages;
        Pool<SharerSet> sharers;
    };

    /** Per-shard statistics bank. */
    struct Bank
    {
        std::uint64_t numMessages = 0;
        std::uint64_t numBytes = 0;
        std::uint64_t numLocal = 0;
        std::uint64_t faultDelayed = 0;
        std::uint64_t faultExtraTicks = 0;
        std::uint64_t crossShard = 0;
        std::vector<std::uint64_t> perType;
        Histogram hopHist;

        Bank()
            : perType(static_cast<std::size_t>(MsgType::NumMsgTypes),
                      0),
              hopHist(8)
        {
        }
        void reset();
    };

    ShardPools &
    shardPools()
    {
        return *_pools[_numShards > 1 ? currentShardId() : 0];
    }
    void insertArrival(NodeId dst, const Arrival &a);
    void drainArrivals(NodeId dst);

    NetworkConfig _cfg;
    FatTreeTopology _topo;

    /** NI occupancy of a header-only [0] and a data [1] packet. */
    std::array<Tick, 2> _niOccupancy;

    std::vector<Port> _ports;

    /** The sharded kernel (null = one queue, the constructor's);
     *  cross-shard routing reads the destination's shard from it, so
     *  a sender never touches another shard's port. */
    const SimKernel *_kernel = nullptr;
    unsigned _numShards = 1;

    /** Cross-shard channels, indexed src_shard * S + dst_shard; the
     *  source worker appends during a window, the destination worker
     *  drains at the next barrier (never concurrently). */
    std::vector<std::vector<Arrival>> _channels;

    /** Clamp per-(src,dst) arrivals monotone (Port::lastArrive). */
    bool _fifoClamp = false;

    std::vector<Bank> _banks;

    const FaultPlan *_faults = nullptr;

    /** Recycled message and sharer storage, one set per shard. */
    std::vector<std::unique_ptr<ShardPools>> _pools;
};

} // namespace pcsim

#endif // PCSIM_NET_NETWORK_HH
