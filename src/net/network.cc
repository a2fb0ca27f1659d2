#include "src/net/network.hh"

#include <algorithm>

#include "src/net/faults.hh"
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
    : SimObject(eq),
      _cfg(cfg),
      _topo(num_nodes),
      _niOccupancy{
          niOccupancy(Message::headerPacketBytes, cfg.niBytesPerCycle),
          niOccupancy(Message::dataPacketBytes, cfg.niBytesPerCycle)},
      _ports(num_nodes)
{
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

    const Tick now = _eq.curTick();
    const std::uint64_t seq = ++sp.seq;

    if (src == dst) {
        // Hub-internal transfer: small fixed latency, no NI occupancy,
        // not network traffic.
        ++_stats.numLocal;
        const Tick deliver = now + _cfg.localLatency;
        MessageHandler *handler = sp.handler;
        if (!handler)
            panic("send: no handler registered for node %u", dst);
        _eq.schedule(deliver, [this, handler, pm]() {
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

    ++_stats.numMessages;
    _stats.numBytes += bytes;
    ++_stats.perType[static_cast<std::size_t>(msg.type)];
    _stats.hopHist.sample(hops);

    Arrival a;
    a.arrive = arrive;
    a.key = (std::uint64_t(src) << 40) | seq;
    a.pm = pm;
    a.faultDelay = fault_delay;
    a.data = data;
    insertArrival(dst, a);
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
        _eq.schedulePhase0(a.arrive, [this, dst]() { drainArrivals(dst); });
}

void
Network::drainArrivals(NodeId dst)
{
    Port &p = _ports[dst];
    const Tick now = _eq.curTick();
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
            ++_stats.faultDelayed;
            _stats.faultExtraTicks += fault_delay;
        }

        Message *pm = e.pm;
        _eq.schedule(deliver, [this, handler, pm]() {
            handler->handleMessage(*pm);
            releaseMessage(pm);
        });
    } while (p.head < p.size && run[p.head].arrive == now);
    if (p.head == p.size)
        p.head = p.size = 0;
}

} // namespace pcsim
