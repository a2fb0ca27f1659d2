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

    insertArrival(dst, Arrival{arrive, (std::uint64_t(src) << 40) | seq,
                               pm, fault_delay, data, 0, 0});
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
Network::insertArrival(NodeId dst, Arrival a)
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
    ++p.size;
    // Same-tick entries are adjacent and share their group's rank; a
    // new (node, arrival tick) group takes the next one.
    if (i > p.head && run[i - 1].arrive == a.arrive)
        a.rank = run[i - 1].rank;
    else if (i + 1 < p.size && run[i + 1].arrive == a.arrive)
        a.rank = run[i + 1].rank;
    else
        a.rank = _nextRank++;
    a.deliver = book(dst, a, i > p.head ? run[i - 1].deliver
                                        : p.ingressFree);
    run[i] = a;
    Message *pm = a.pm;
    _eq.scheduleAt(a.deliver,
                   {EventQueue::appendKey(a.arrive, true), a.rank},
                   [this, dst, pm]() { deliverArrival(dst, pm); });
    // Filed ahead of later arrivals: push their bookings back until
    // one stays put (every later one then does too).
    Tick free = a.deliver;
    for (std::uint32_t j = i + 1; j < p.size; ++j) {
        const Tick d = book(dst, run[j], free);
        if (d == run[j].deliver)
            break;
        run[j].deliver = free = d;
    }
}

Tick
Network::book(NodeId dst, const Arrival &e, Tick free) const
{
    // Serialize ejection at the destination NI (also stallable) in
    // (arrive, src, seq) order.
    Tick eject = std::max(e.arrive, free);
    if (_faults)
        eject = _faults->stallClearTick(dst, eject);
    return eject + _niOccupancy[e.data];
}

void
Network::deliverArrival(NodeId dst, Message *pm)
{
    Port &p = _ports[dst];
    const Tick now = _eq.curTick();
    const Arrival *run = p.run.get();
    std::uint32_t i = p.head;
    while (i < p.size && run[i].pm != pm)
        ++i;
    if (i == p.size)
        panic("network: node %u delivers an unfiled message at %llu", dst,
              (unsigned long long)now);
    const Arrival &e = run[i];
    if (e.deliver > now) {
        // Re-booked behind an arrival filed ahead of it: the same
        // position, at the booked tick.
        _eq.scheduleAt(e.deliver, _eq.executing(),
                       [this, dst, pm]() { deliverArrival(dst, pm); });
        return;
    }
    if (i != p.head || e.deliver != now)
        panic("network: node %u delivers out of order at %llu", dst,
              (unsigned long long)now);
    MessageHandler *handler = p.handler;
    if (!handler)
        panic("send: no handler registered for node %u", dst);
    if (e.arrive >= _statsFrom) {
        Tick fault_delay = e.faultDelay;
        if (_faults) {
            const Tick eject = std::max(e.arrive, p.ingressFree);
            fault_delay += _faults->stallClearTick(dst, eject) - eject;
        }
        if (fault_delay) {
            ++_stats.faultDelayed;
            _stats.faultExtraTicks += fault_delay;
        }
    }
    p.ingressFree = now;
    if (++p.head == p.size)
        p.head = p.size = 0;
    handler->handleMessage(*pm);
    releaseMessage(pm);
}

} // namespace pcsim
