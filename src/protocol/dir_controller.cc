#include "src/protocol/dir_controller.hh"

#include <algorithm>

#include "src/net/faults.hh"
#include "src/protocol/backoff.hh"
#include "src/protocol/hub.hh"
#include "src/protocol/policy.hh"
#include "src/sim/logging.hh"
#include "src/verify/observer.hh"

namespace pcsim
{

// Conformance frame over the merged directory view (peek + backing
// store; side-effect free).
#define DIR_CONFORMANCE_SCOPE(msg, event)                               \
    verify::ConformanceScope pcsimConformanceScope(                     \
        _hub.observer(), verify::Ctrl::Dir, _hub.id(), (msg).addr,      \
        (event), [this, line = (msg).addr]() {                          \
            return static_cast<verify::StateId>(dirEntry(line).state);  \
        })

DirController::DirController(Hub &hub, Rng rng)
    : _hub(hub),
      _cfg(hub.cfg()),
      _store(_cfg.sharerGranularityLog2),
      _dirCache(_cfg.dirCache, _cfg.lineBytes, _store, rng.fork()),
      _dram(_cfg.dram),
      _rng(rng.fork()),
      _arb(_cfg)
{
}

DirEntry
DirController::dirEntry(Addr line) const
{
    // Merged view: directory cache wins over the backing store.
    if (DirCacheEntry *e =
            const_cast<DirectoryCache &>(_dirCache).peek(line))
        return e->dir;
    if (const DirEntry *s = _store.find(line))
        return *s;
    return DirEntry{};
}

DirCacheEntry *
DirController::access(Addr line, Tick &ready)
{
    const Tick now = _hub.curTick();
    ready = now + _cfg.hubLatency;
    // Fault injection: a directory-cache pressure window caps the
    // associativity misses may allocate into (hits are unaffected).
    unsigned ways_limit = 0;
    if (const FaultPlan *fp = _hub.network().faultPlan())
        ways_limit = fp->dirWaysLimit(_hub.id(), now);
    bool was_miss = false;
    DirCacheEntry *e = _dirCache.access(line, was_miss, ways_limit);
    if (was_miss) {
        ++_hub.stats().dirCacheMisses;
        // Fetch the entry from the in-memory directory.
        ready = std::max(ready, _dram.access(now));
    } else {
        ++_hub.stats().dirCacheHits;
    }
    return e;
}

Tick
DirController::withMemData(Tick ready)
{
    // Data fetch proceeds in parallel with the directory lookup.
    return std::max(ready, _dram.access(_hub.curTick()));
}

Tick
DirController::rehandleBackoff(const Message &msg, const char *what)
{
    const std::uint32_t attempt = _rehandleRetries[msg.addr]++;
    NodeStats &st = _hub.stats();
    ++st.retries;
    ++st.dirRehandleRetries;
    st.noteRetryAttempt(attempt);
    if (attempt >= _cfg.maxRetries)
        panic("node %u: %s re-handle for 0x%llx exceeded %u retries "
              "(directory-cache set wedged?)\n%s",
              _hub.id(), what, (unsigned long long)msg.addr,
              _cfg.maxRetries, _hub.lineTrace(msg.addr).c_str());
    std::size_t exp = 0;
    const Tick backoff = retryBackoff(_cfg, attempt, _rng, &exp);
    st.backoffHist.sample(exp);
    return backoff;
}

void
DirController::rehandleDone(Addr line)
{
    if (!_rehandleRetries.empty())
        _rehandleRetries.erase(line);
}

void
DirController::handleRequest(const Message &msg)
{
    if (_arb.enabled()) {
        if (_arb.shouldPark(msg.addr)) {
            // Requests are already waiting (or a drain is in flight):
            // overtaking them would break the queue discipline. Park
            // behind them; a full queue falls back to NACK so the
            // engine never backpressures the network.
            if (!_arb.park(msg, _hub.curTick(), _hub.stats()))
                _hub.sendNack(MsgType::Nack, msg.addr, msg.requester,
                              msg.txnId, _hub.curTick() + _cfg.hubLatency);
            return;
        }
        handleRequestCore(msg);
        maybeDrain(msg.addr);
        return;
    }
    handleRequestCore(msg);
}

void
DirController::nackOrQueue(const Message &msg, Tick ready)
{
    if (_arb.enabled() && _arb.park(msg, _hub.curTick(), _hub.stats()))
        return;
    _hub.sendNack(MsgType::Nack, msg.addr, msg.requester, msg.txnId,
                  ready);
}

void
DirController::maybeDrain(Addr line)
{
    if (!_arb.enabled() || _arb.drainPending(line) || _arb.empty(line))
        return;
    if (dirEntry(line).busy())
        return; // the completing event will re-trigger the drain
    const Message req = _arb.pop(line, _hub.curTick(), _hub.stats());
    _arb.markDrainPending(line);
    // Re-enter like a fresh arrival after the hub's processing
    // latency.
    _hub.eventQueue().scheduleIn(_cfg.hubLatency, [this, req]() {
        _arb.clearDrainPending(req.addr);
        handleRequestCore(req);
        maybeDrain(req.addr);
    });
}

void
DirController::handleRequestCore(const Message &msg)
{
    DIR_CONFORMANCE_SCOPE(msg, verify::eventOf(msg.type));

    ++_hub.stats().homeRequests;

    Tick ready;
    DirCacheEntry *e = access(msg.addr, ready);
    if (!e) {
        // Directory cache set wedged with busy entries.
        _hub.sendNack(MsgType::Nack, msg.addr, msg.requester, msg.txnId,
                      ready);
        return;
    }

    const CoherencePolicy &policy = _hub.policy();
    if (msg.type == MsgType::ReqShared)
        policy.handleRead(*this, msg, *e, ready);
    else
        policy.handleWrite(*this, msg, *e, ready);
}

void
DirController::handleUpdateWB(const Message &msg)
{
    DIR_CONFORMANCE_SCOPE(msg, verify::PEvent::UpdateWB);

    Tick ready;
    DirCacheEntry *e = access(msg.addr, ready);
    if (!e) {
        // The entry is BUSY_UPD and busy entries are unevictable, so
        // it is resident by construction; a wedged set here means the
        // episode state was lost.
        panic("node %u: UpdateWB with wedged directory set: %s",
              _hub.id(), msg.toString().c_str());
    }
    _hub.policy().handleUpdateWB(*this, msg, *e, ready);
    maybeDrain(msg.addr);
}

void
DirController::handleUpdateDrop(const Message &msg)
{
    DIR_CONFORMANCE_SCOPE(msg, verify::PEvent::UpdateDrop);

    Tick ready;
    DirCacheEntry *e = access(msg.addr, ready);
    if (!e) {
        // A drop is pure unsubscription: losing it costs a few extra
        // pushes the consumer will drop at INVALID, never correctness.
        return;
    }
    _hub.policy().handleUpdateDrop(*this, msg, *e, ready);
}

void
DirController::delegate(Addr line, NodeId producer, DirCacheEntry &e,
                        Tick ready, std::uint64_t txn_id)
{
    DirEntry &d = e.dir;
    ++_hub.stats().delegationsGranted;

    Message del;
    del.type = MsgType::Delegate;
    del.addr = line;
    del.dst = producer;
    del.requester = producer;
    del.txnId = txn_id;
    del.version = d.memVersion; // Shared/Unowned: memory is current
    del.sharers = _hub.network().acquireSharers();
    *del.sharers = d.sharers;
    del.owner = producer;

    d.state = DirState::Dele;
    d.owner = producer;
    d.sharers.clear();
    // The detector bits are repurposed while the entry is delegated;
    // after an undelegation the pattern must re-saturate before the
    // line is delegated again, which throttles conflict churn when
    // the producer-consumer working set exceeds the producer table.
    e.detector.reset();

    _hub.sendAt(withMemData(ready), del);
}

void
DirController::forwardToDelegate(const Message &msg, DirCacheEntry &e,
                                 Tick ready)
{
    DirEntry &d = e.dir;
    const NodeId producer = d.owner;

    if (msg.requester == producer) {
        // The producer raced its own delegation handoff (Section
        // 2.3.4): NACK; on retry it will find itself the acting home.
        _hub.sendNack(MsgType::Nack, msg.addr, msg.requester, msg.txnId,
                      ready);
        return;
    }

    ++_hub.stats().forwardedRequests;

    Message fwd = msg;
    fwd.dst = producer;

    Message hint;
    hint.type = MsgType::HomeHint;
    hint.addr = msg.addr;
    hint.dst = msg.requester;
    hint.hintHome = producer;

    // Two back-to-back pooled sends: scheduled consecutively, they
    // execute in order at `ready` with no same-tick event between
    // them, exactly like the former single two-send closure.
    _hub.sendAt(ready, fwd);
    _hub.sendAt(ready, hint);
}

void
DirController::handleWriteback(const Message &msg)
{
    DIR_CONFORMANCE_SCOPE(msg, verify::PEvent::WritebackM);

    Tick ready;
    DirCacheEntry *e = access(msg.addr, ready);
    if (!e) {
        // Cannot NACK a writeback (it carries the only copy); retry
        // the handling locally, with the shared bounded backoff, until
        // a directory-cache way frees up.
        Message again = msg;
        _hub.eventQueue().scheduleIn(
            rehandleBackoff(msg, "WritebackM"),
            [this, again]() { handleWriteback(again); });
        return;
    }
    rehandleDone(msg.addr);
    DirEntry &d = e->dir;
    const NodeId src = msg.requester;

    Message ack;
    ack.type = MsgType::WritebackAck;
    ack.addr = msg.addr;
    ack.dst = src;

    switch (d.state) {
      case DirState::Excl:
        if (d.owner != src)
            panic("writeback from %u but owner is %u", src, d.owner);
        d.memVersion = msg.version;
        d.state = DirState::Unowned;
        d.owner = invalidNode;
        d.sharers.clear();
        break;

      case DirState::BusyRead:
      case DirState::BusyExcl: {
        if (d.pendingOwner != src)
            panic("writeback race from non-owner %u", src);
        // The owner wrote back before our intervention reached it.
        // Absorb the data but STAY BUSY until the intervention's
        // NACK returns: the line stays unreachable meanwhile, so the
        // roaming intervention can never find a re-acquired copy.
        d.memVersion = msg.version;
        d.pendingWb = true;
        break;
      }

      default:
        panic("writeback in dir state %s", dirStateName(d.state));
    }

    _hub.sendAt(ready, ack);
    maybeDrain(msg.addr);
}

void
DirController::handleSharedWriteback(const Message &msg)
{
    DIR_CONFORMANCE_SCOPE(msg, verify::PEvent::SharedWriteback);

    Tick ready;
    DirCacheEntry *e = access(msg.addr, ready);
    if (!e)
        panic("SHWB with wedged directory set");
    DirEntry &d = e->dir;
    if (d.state != DirState::BusyRead)
        panic("SHWB in dir state %s", dirStateName(d.state));

    d.memVersion = msg.version;
    d.state = DirState::Shared;
    d.sharers.clear();
    d.sharers.add(d.pendingOwner);
    d.sharers.add(d.pendingReq);
    d.owner = invalidNode;
    d.pendingReq = invalidNode;
    d.pendingOwner = invalidNode;
    maybeDrain(msg.addr);
}

void
DirController::handleTransferAck(const Message &msg)
{
    DIR_CONFORMANCE_SCOPE(msg, verify::PEvent::TransferAck);

    Tick ready;
    DirCacheEntry *e = access(msg.addr, ready);
    if (!e)
        panic("TransferAck with wedged directory set");
    DirEntry &d = e->dir;
    if (d.state != DirState::BusyExcl)
        panic("TransferAck in dir state %s", dirStateName(d.state));

    d.state = DirState::Excl;
    d.owner = d.pendingReq;
    d.sharers.clear();
    // Memory stays stale: the data moved owner-to-owner.
    d.pendingReq = invalidNode;
    d.pendingOwner = invalidNode;
    maybeDrain(msg.addr);
}

void
DirController::handleIntervNack(const Message &msg)
{
    DIR_CONFORMANCE_SCOPE(msg, verify::PEvent::IntervNack);

    Tick ready;
    DirCacheEntry *e = access(msg.addr, ready);
    if (!e || !e->dir.busy())
        return; // stale (episode already resolved)
    DirEntry &d = e->dir;
    if (d.pendingOwner != msg.src)
        return;

    if (d.pendingWb) {
        // Writeback race: the data arrived while we waited for this
        // NACK; satisfy the pending requester straight from memory.
        Message resp;
        resp.addr = msg.addr;
        resp.dst = d.pendingReq;
        resp.version = d.memVersion;
        resp.txnId = d.pendingTxnId;
        if (d.state == DirState::BusyRead) {
            resp.type = MsgType::RespSharedData;
            d.state = DirState::Shared;
            d.sharers.clear();
            d.sharers.add(d.pendingReq);
            d.owner = invalidNode;
        } else {
            resp.type = MsgType::RespExclData;
            resp.ackCount = 0;
            d.state = DirState::Excl;
            d.owner = d.pendingReq;
            d.sharers.clear();
        }
        d.pendingWb = false;
        d.pendingReq = invalidNode;
        d.pendingOwner = invalidNode;
        _hub.sendAt(ready, resp);
        maybeDrain(msg.addr);
        return;
    }

    // The intervention target's own exclusive grant had not completed
    // yet (its fill or invalidation acks were still in flight). The
    // owner recorded at the home is still correct; NACK the waiting
    // requester so it retries once the owner's transaction settles
    // (Section 2.3.4's NACK-and-retry discipline).
    const NodeId requester = d.pendingReq;
    const std::uint64_t txn_id = d.pendingTxnId;

    d.state = DirState::Excl;
    d.owner = d.pendingOwner;
    d.sharers.clear();
    d.pendingReq = invalidNode;
    d.pendingOwner = invalidNode;

    _hub.sendNack(MsgType::Nack, msg.addr, requester, txn_id, ready);
    maybeDrain(msg.addr);
}

void
DirController::handleUndele(const Message &msg)
{
    DIR_CONFORMANCE_SCOPE(msg, verify::PEvent::Undele);

    Tick ready;
    DirCacheEntry *e = access(msg.addr, ready);
    if (!e) {
        // Like a writeback, an UNDELE carries protocol state that
        // cannot be dropped or NACKed: bounded local re-handle. The
        // copy keeps the sharer side set, which is released only when
        // the copy is finally handled.
        Message again = msg;
        _hub.eventQueue().scheduleIn(
            rehandleBackoff(msg, "Undele"),
            [this, again]() { handleUndele(again); });
        return;
    }
    rehandleDone(msg.addr);
    DirEntry &d = e->dir;
    if (d.state != DirState::Dele)
        panic("Undele in dir state %s", dirStateName(d.state));

    // Restore the directory from the delegate's snapshot.
    d.memVersion = msg.version;
    if (msg.owner != invalidNode) {
        d.state = DirState::Excl;
        d.owner = msg.owner;
        d.sharers.clear();
    } else if (msg.sharers && !msg.sharers->empty()) {
        d.state = DirState::Shared;
        d.sharers = *msg.sharers;
        d.owner = invalidNode;
    } else {
        d.state = DirState::Unowned;
        d.sharers.clear();
        d.owner = invalidNode;
    }
    // The snapshot is consumed: the side set goes back to the pool.
    if (msg.sharers)
        _hub.network().releaseSharers(msg.sharers);

    // Service the exclusive request that forced the undelegation.
    if (msg.pendingReq != invalidNode) {
        Message req;
        req.type = msg.pendingType;
        req.addr = msg.addr;
        req.dst = _hub.id();
        req.requester = msg.pendingReq;
        req.txnId = msg.txnId;
        _hub.eventQueue().schedule(ready, [this, req]() {
            handleRequest(req);
        });
    }
    maybeDrain(msg.addr);
}

} // namespace pcsim
