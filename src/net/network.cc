#include "src/net/network.hh"

#include <algorithm>

#include "src/net/faults.hh"
#include "src/sim/kernel.hh"
#include "src/sim/logging.hh"

namespace pcsim
{

namespace
{

/** Ticks a packet of @p bytes holds an NI at @p bytes_per_cycle. */
Tick
niOccupancy(std::uint32_t bytes, std::uint32_t bytes_per_cycle)
{
    if (bytes_per_cycle == 0)
        fatal("network: niBytesPerCycle must be nonzero");
    return std::max<Tick>(1, bytes / bytes_per_cycle);
}

} // namespace

Network::Network(EventQueue &eq, unsigned num_nodes, NetworkConfig cfg)
    : SimObject(eq, "network"),
      _cfg(cfg),
      _topo(num_nodes),
      _niOccupancy{
          niOccupancy(Message::headerPacketBytes, cfg.niBytesPerCycle),
          niOccupancy(Message::dataPacketBytes, cfg.niBytesPerCycle)},
      _ports(num_nodes),
      _banks(1)
{
    for (Port &p : _ports)
        p.queue = &eq;
    _pools.emplace_back(std::make_unique<ShardPools>());
}

void
Network::attachKernel(SimKernel &kernel)
{
    const unsigned shards = kernel.numShards();
    _kernel = &kernel;
    _numShards = shards;
    for (NodeId n = 0; n < _ports.size(); ++n) {
        _ports[n].shard = kernel.shardOf(n);
        _ports[n].queue = &kernel.queueForNode(n);
    }
    _channels.assign(std::size_t(shards) * shards, {});
    _banks.resize(shards);
    while (_pools.size() < shards)
        _pools.emplace_back(std::make_unique<ShardPools>());
    kernel.setFlushHook(
        [this](unsigned dst_shard) { flushShard(dst_shard); });
}

void
Network::registerHandler(NodeId node, MessageHandler *handler)
{
    if (node >= _ports.size())
        panic("registerHandler: node %u out of range", node);
    _ports[node].handler = handler;
}

void
Network::send(const Message &msg)
{
    Message *pm = acquireMessage();
    *pm = msg;
    sendAcquired(pm);
}

void
Network::setFaultPlan(const FaultPlan *plan)
{
    _faults = plan;
    // Extra link latency is the only mechanism that can reorder
    // same-(src,dst) arrivals; arm the FIFO clamp only then so the
    // fault-free fast path stays map-free.
    _fifoClamp = plan && plan->anyLatencyFaults();
}

void
Network::sendAcquired(Message *pm)
{
    Message &msg = *pm;
    if (msg.src >= _ports.size() || msg.dst >= _ports.size())
        panic("send: bad endpoints %u -> %u", msg.src, msg.dst);
    const NodeId src = msg.src;
    const NodeId dst = msg.dst;
    Port &sp = _ports[src];

    const Tick now = sp.queue->curTick();
    const std::uint64_t seq = ++sp.seq;

    if (src == dst) {
        // Hub-internal transfer: small fixed latency, no NI occupancy,
        // not network traffic.
        ++_banks[sp.shard].numLocal;
        const Tick deliver = now + _cfg.localLatency;
        PCSIM_DPRINTF(DebugNet, now, "net: %s deliver@%llu",
                      msg.toString().c_str(),
                      (unsigned long long)deliver);
        MessageHandler *handler = sp.handler;
        if (!handler)
            panic("send: no handler registered for node %u", dst);
        sp.queue->schedule(deliver, [this, handler, pm]() {
            handler->handleMessage(*pm);
            releaseMessage(pm);
        });
        return;
    }

    const std::uint32_t bytes = msg.sizeBytes();
    const bool data = msgCarriesData(msg.type);
    const Tick occupancy = _niOccupancy[data ? 1 : 0];
    const unsigned hops = _topo.hops(src, dst);

    // Serialize injection at the source NI; a fault-injected stall
    // window pauses injection entirely.
    Tick inject = std::max(now, sp.egressFree);
    Tick fault_delay = 0;
    if (_faults) {
        const Tick clear = _faults->stallClearTick(src, inject);
        fault_delay += clear - inject;
        inject = clear;
    }
    sp.egressFree = inject + occupancy;

    // Wire latency across the fat tree, plus any gray-link / hot-spot
    // degradation. The fault delay accumulated so far is carried with
    // the message and counted once at ejection.
    Tick extra = 0;
    if (_faults)
        extra = _faults->extraLatency(src, dst, inject);
    fault_delay += extra;
    Tick arrive = inject + occupancy + _cfg.hopLatency * hops + extra;

    // NI serialization alone keeps per-(src,dst) arrivals monotone;
    // fault-injected extra latency can reorder them, so clamp the
    // arrival tick to preserve point-to-point FIFO (ties then break
    // by per-source sequence in the arrival run).
    if (_fifoClamp) {
        Tick &last = sp.lastArrive[dst];
        if (arrive < last)
            arrive = last;
        last = arrive;
    }

    Bank &bank = _banks[sp.shard];
    ++bank.numMessages;
    bank.numBytes += bytes;
    ++bank.perType[static_cast<std::size_t>(msg.type)];
    bank.hopHist.sample(hops);

    PCSIM_DPRINTF(DebugNet, now, "net: %s arrive@%llu",
                  msg.toString().c_str(), (unsigned long long)arrive);

    Arrival a;
    a.arrive = arrive;
    a.key = (std::uint64_t(src) << 40) | seq;
    a.pm = pm;
    a.faultDelay = fault_delay;
    a.data = data;
    const unsigned dst_shard = _numShards > 1 ? _kernel->shardOf(dst) : 0;
    if (dst_shard == sp.shard) {
        insertArrival(dst, a);
    } else {
        ++bank.crossShard;
        _channels[std::size_t(sp.shard) * _numShards + dst_shard]
            .push_back(a);
    }
}

void
Network::Port::reserveOne()
{
    const std::uint32_t live = size - head;
    Arrival *from = run.get();
    if (2 * live < cap) {
        std::copy(from + head, from + size, from);
    } else {
        const std::uint32_t grown = cap ? 2 * cap : 16;
        std::unique_ptr<Arrival[]> bigger(new Arrival[grown]);
        std::copy(from + head, from + size, bigger.get());
        run = std::move(bigger);
        cap = grown;
    }
    head = 0;
    size = live;
}

void
Network::insertArrival(NodeId dst, const Arrival &a)
{
    Port &p = _ports[dst];
    if (p.size == p.cap)
        p.reserveOne();
    // Arrivals mostly come in order: walk back from the tail past the
    // live entries that sort after the new one.
    Arrival *run = p.run.get();
    std::uint32_t i = p.size;
    while (i > p.head && run[i - 1].after(a)) {
        run[i] = run[i - 1];
        --i;
    }
    run[i] = a;
    ++p.size;
    // One phase-0 drain per distinct (node, arrival tick), so the
    // event count is a function of content, never of insertion order.
    // Same-tick entries are adjacent: a drain is already armed iff a
    // neighbour shares the tick.
    const bool armed = (i > p.head && run[i - 1].arrive == a.arrive) ||
                       (i + 1 < p.size && run[i + 1].arrive == a.arrive);
    if (!armed)
        p.queue->schedulePhase0(a.arrive,
                                [this, dst]() { drainArrivals(dst); });
}

void
Network::drainArrivals(NodeId dst)
{
    Port &p = _ports[dst];
    EventQueue &q = *p.queue;
    const Tick now = q.curTick();
    const Arrival *run = p.run.get();
    if (p.head == p.size || run[p.head].arrive != now)
        panic("network: node %u drains at %llu without an arrival", dst,
              (unsigned long long)now);
    MessageHandler *handler = p.handler;
    if (!handler)
        panic("send: no handler registered for node %u", dst);
    do {
        const Arrival &e = run[p.head++];

        // Serialize ejection at the destination NI (also stallable)
        // in (arrive, src, seq) order -- the content order, however
        // the sends interleaved.
        const Tick occupancy = _niOccupancy[e.data];
        Tick eject = std::max(now, p.ingressFree);
        Tick fault_delay = e.faultDelay;
        if (_faults) {
            const Tick clear = _faults->stallClearTick(dst, eject);
            fault_delay += clear - eject;
            eject = clear;
        }
        const Tick deliver = eject + occupancy;
        p.ingressFree = deliver;

        if (fault_delay) {
            Bank &bank = _banks[p.shard];
            ++bank.faultDelayed;
            bank.faultExtraTicks += fault_delay;
        }

        Message *pm = e.pm;
        PCSIM_DPRINTF(DebugNet, now, "net: %s deliver@%llu",
                      pm->toString().c_str(),
                      (unsigned long long)deliver);
        q.schedule(deliver, [this, handler, pm]() {
            handler->handleMessage(*pm);
            releaseMessage(pm);
        });
    } while (p.head < p.size && run[p.head].arrive == now);
    if (p.head == p.size)
        p.head = p.size = 0;
}

void
Network::flushShard(unsigned dst_shard)
{
    for (unsigned src_shard = 0; src_shard < _numShards; ++src_shard) {
        auto &ch =
            _channels[std::size_t(src_shard) * _numShards + dst_shard];
        for (const Arrival &a : ch)
            insertArrival(a.pm->dst, a);
        ch.clear();
    }
}

Pool<Message>::Stats
Network::poolStats() const
{
    Pool<Message>::Stats sum;
    for (const auto &p : _pools) {
        const Pool<Message>::Stats &s = p->messages.stats();
        sum.acquires += s.acquires;
        sum.reuses += s.reuses;
        sum.releases += s.releases;
        sum.slabs += s.slabs;
    }
    return sum;
}

std::uint64_t
Network::numMessages() const
{
    std::uint64_t n = 0;
    for (const Bank &b : _banks)
        n += b.numMessages;
    return n;
}

std::uint64_t
Network::numBytes() const
{
    std::uint64_t n = 0;
    for (const Bank &b : _banks)
        n += b.numBytes;
    return n;
}

std::uint64_t
Network::numLocalMessages() const
{
    std::uint64_t n = 0;
    for (const Bank &b : _banks)
        n += b.numLocal;
    return n;
}

std::uint64_t
Network::numByType(MsgType t) const
{
    std::uint64_t n = 0;
    for (const Bank &b : _banks)
        n += b.perType[static_cast<std::size_t>(t)];
    return n;
}

Histogram
Network::hopHistogram() const
{
    Histogram merged(8);
    for (const Bank &b : _banks)
        merged.merge(b.hopHist);
    return merged;
}

std::uint64_t
Network::crossShardMessages() const
{
    std::uint64_t n = 0;
    for (const Bank &b : _banks)
        n += b.crossShard;
    return n;
}

std::uint64_t
Network::faultDelayedMessages() const
{
    std::uint64_t n = 0;
    for (const Bank &b : _banks)
        n += b.faultDelayed;
    return n;
}

std::uint64_t
Network::faultExtraTicks() const
{
    std::uint64_t n = 0;
    for (const Bank &b : _banks)
        n += b.faultExtraTicks;
    return n;
}

void
Network::Bank::reset()
{
    numMessages = 0;
    numBytes = 0;
    numLocal = 0;
    faultDelayed = 0;
    faultExtraTicks = 0;
    crossShard = 0;
    std::fill(perType.begin(), perType.end(), 0);
    hopHist.reset();
}

void
Network::resetStats()
{
    for (Bank &b : _banks)
        b.reset();
}

} // namespace pcsim
