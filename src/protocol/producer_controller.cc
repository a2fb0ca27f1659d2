#include "src/protocol/producer_controller.hh"

#include "src/protocol/hub.hh"
#include "src/sim/logging.hh"
#include "src/verify/observer.hh"

namespace pcsim
{

namespace
{

/** Spec-state of the producer-table entry for @p line. Uses the
 *  non-touching array lookup so the conformance hook cannot perturb
 *  LRU replacement. */
verify::StateId
producerStateGetter(Hub &hub, Addr line)
{
    DelegateCache *dc = hub.delegateCache();
    const ProducerEntry *e = dc ? dc->producer().find(line, false)
                                : nullptr;
    if (!e)
        return verify::prodNone;
    return e->dir.state == DirState::Excl ? verify::prodExcl
                                          : verify::prodShared;
}

} // namespace

ProducerController::ProducerController(Hub &hub)
    : _hub(hub), _cfg(hub.cfg()), _arb(_cfg)
{
}

bool
ProducerController::isDelegated(Addr line)
{
    DelegateCache *dc = _hub.delegateCache();
    return dc && dc->producerFind(line) != nullptr;
}

const ProducerEntry *
ProducerController::entryFor(Addr line) const
{
    DelegateCache *dc = const_cast<Hub &>(_hub).delegateCache();
    return dc ? dc->producerFind(line) : nullptr;
}

void
ProducerController::handleDelegate(const Message &msg)
{
    const Addr line = msg.addr;
    DelegateCache *dc = _hub.delegateCache();
    Rac *rac = _hub.rac();

    verify::ConformanceScope scope(
        _hub.observer(), verify::Ctrl::Producer, _hub.id(), line,
        verify::PEvent::Delegate,
        [this, line]() { return producerStateGetter(_hub, line); });

    // Allocate the producer-table entry; a conflict undelegates the
    // victim first (undelegation reason 1).
    ProducerEntry *e = dc->producer().allocate(
        line,
        [this](Addr victim, const ProducerEntry &) {
            // Never displace a line with local work in flight.
            return !_hub.cacheCtrl().hasMshr(victim);
        },
        [this](Addr victim, ProducerEntry &v) {
            // The way is recycled right after this callback: sample
            // the pre state from the payload and pin the post state.
            verify::ConformanceScope evict_scope(
                _hub.observer(), verify::Ctrl::Producer, _hub.id(),
                victim, verify::PEvent::Evict,
                [s = v.dir.state]() {
                    return s == DirState::Excl ? verify::prodExcl
                                               : verify::prodShared;
                });
            evict_scope.overridePost(verify::prodNone);
            ++_hub.stats().undelegationsCapacity;
            undelegate(victim, v);
        });

    // If we must hand the delegation back, the home can satisfy our
    // pending write as a full exclusive fetch.
    const MsgType pending_type = MsgType::ReqExcl;

    if (!e) {
        // Cannot host the delegation: hand it straight back and let
        // the home service our pending write normally.
        Message und;
        und.type = MsgType::Undele;
        und.addr = line;
        und.dst = _hub.homeOf(line);
        und.version = msg.version;
        und.sharers = msg.sharers; // the Undele takes over the set
        und.owner = invalidNode;
        und.pendingReq = _hub.id();
        und.pendingType = pending_type;
        und.txnId = _hub.cacheCtrl().mshrTxnId(line);
        _hub.send(und);
        return;
    }

    e->dir.state = DirState::Shared;
    e->dir.sharers = *msg.sharers;
    _hub.network().releaseSharers(msg.sharers);
    e->dir.owner = invalidNode;
    e->dir.memVersion = msg.version;

    // Pin the surrogate-memory copy in the RAC. When the producer is
    // the home itself (self-delegation under first-touch placement)
    // the local DRAM already holds the data and no pin is needed.
    const bool self_home = _hub.homeOf(line) == _hub.id();
    if (!self_home) {
        RacEntry *re = rac->insertPinned(line, msg.version,
                                         [this](Addr victim) {
                                             undelegateForRacPressure(
                                                 victim);
                                         });
        if (!re) {
            ++_hub.stats().undelegationsFlush;
            undelegate(line, *e, _hub.id(), pending_type);
            return;
        }
    }

    ++_hub.stats().delegationsReceived;

    // The delegation was triggered by our own pending write: serve it
    // now as the acting home (Figure 4a step 8: "convert delegate msg
    // into an exclusive reply").
    if (_hub.cacheCtrl().hasMshr(line)) {
        Message local;
        local.type = MsgType::ReqExcl;
        local.addr = line;
        local.requester = _hub.id();
        local.txnId = _hub.cacheCtrl().mshrTxnId(line);
        serveLocalWrite(local, *e);
    }
}

void
ProducerController::handleRequest(const Message &msg)
{
    // Only remote arrivals park: the producer's own requests on its
    // delegated lines are the write episodes the queue waits on.
    if (_arb.enabled() && msg.requester != _hub.id()) {
        if (_arb.shouldPark(msg.addr)) {
            if (!_arb.park(msg, _hub.curTick(), _hub.stats())) {
                // Queue full: lossless fallback to NACK.
                _hub.sendNack(MsgType::Nack, msg.addr, msg.requester,
                              msg.txnId);
            }
            return;
        }
        handleRequestCore(msg);
        maybeDrain(msg.addr);
        return;
    }
    handleRequestCore(msg);
}

void
ProducerController::maybeDrain(Addr line)
{
    if (!_arb.enabled() || _arb.drainPending(line) || _arb.empty(line))
        return;
    DelegateCache *dc = _hub.delegateCache();
    ProducerEntry *e = dc ? dc->producerFind(line) : nullptr;
    if (!e)
        return; // undelegated; undelegate() flushed the queue
    if (_hub.cacheCtrl().hasMshr(line))
        return; // local transaction in flight; completion re-triggers
    const Message &next = _arb.peek(line);
    if (next.type == MsgType::ReqShared &&
        e->dir.state == DirState::Excl && _cfg.updatesEnabled() &&
        e->intervPending) {
        // The speculative push is imminent and will carry the data;
        // completeEpoch re-triggers the drain.
        return;
    }
    const Message req = _arb.pop(line, _hub.curTick(), _hub.stats());
    _arb.markDrainPending(line);
    _hub.eventQueue().scheduleIn(_cfg.hubLatency, [this, req]() {
        _arb.clearDrainPending(req.addr);
        if (isDelegated(req.addr)) {
            handleRequestCore(req);
            maybeDrain(req.addr);
            return;
        }
        // Undelegated while the drain was in flight: route the
        // request like any arrival for a line we no longer manage.
        if (_hub.homeOf(req.addr) == _hub.id()) {
            _hub.dirCtrl().handleRequest(req);
            return;
        }
        _hub.sendNack(MsgType::NackNotHome, req.addr, req.requester,
                      req.txnId);
    });
}

void
ProducerController::handleRequestCore(const Message &msg)
{
    const Addr line = msg.addr;

    verify::ConformanceScope scope(
        _hub.observer(), verify::Ctrl::Producer, _hub.id(), line,
        verify::eventOf(msg.type),
        [this, line]() { return producerStateGetter(_hub, line); });

    DelegateCache *dc = _hub.delegateCache();
    ProducerEntry *e = dc->producerFind(line);
    if (!e)
        panic("producer request without entry");

    const bool local = msg.requester == _hub.id();

    if (!local && _hub.cacheCtrl().hasMshr(line)) {
        // Our own transaction on this line is mid-flight; anything
        // remote must wait (park, or NACK + retry) until it settles.
        if (_arb.enabled() &&
            _arb.park(msg, _hub.curTick(), _hub.stats()))
            return;
        _hub.sendNack(MsgType::Nack, line, msg.requester, msg.txnId);
        return;
    }

    switch (msg.type) {
      case MsgType::ReqShared:
        // Local reads reach here only for self-delegated lines (no
        // pinned RAC copy exists); the reply path is identical.
        serveRemoteRead(msg, *e);
        break;

      case MsgType::ReqExcl:
      case MsgType::ReqUpgrade:
        if (local) {
            serveLocalWrite(msg, *e);
        } else {
            // Undelegation reason 3: another node wants to write.
            ++_hub.stats().undelegationsConflict;
            undelegate(line, *e, msg.requester, msg.type, msg.txnId);
        }
        break;

      default:
        panic("producer got %s", msg.toString().c_str());
    }
}

void
ProducerController::serveLocalWrite(const Message &msg, ProducerEntry &e)
{
    const Addr line = msg.addr;
    if (e.dir.state != DirState::Shared)
        panic("local write to delegated 0x%llx in state %s",
              (unsigned long long)line, dirStateName(e.dir.state));

    ++_hub.stats().delegatedLocalOps;

    // Extra write miss: the previous delayed intervention cut a write
    // burst short (Section 3.3.1's "5-cycle" effect). A re-upgrade
    // shortly after the downgrade means the burst was still going.
    constexpr Tick burstWindow = 200;
    const Tick *ld = _lastDowngrade.find(line);
    if (ld && _hub.curTick() - *ld < burstWindow) {
        ++_hub.stats().extraWriteMisses;
    }

    // Invalidate every consumer copy; acks flow to our own MSHR. Only
    // ourselves (the producer) is skipped: under a coarse vector our
    // group-mates may genuinely hold copies behind our own group bit,
    // so they must see the invalidation too.
    const NodeId self = _hub.id();
    unsigned consumers = 0;
    e.dir.sharers.forEachNode(_cfg.numNodes, [&](NodeId n) {
        consumers += n != self;
    });
    _hub.sampleConsumers(line, consumers);
    std::uint16_t acks = 0;
    e.dir.sharers.forEachNode(_cfg.numNodes, [&](NodeId n) {
        if (n == self)
            return;
        ++acks;
        ++_hub.stats().interventionsSent;
        Message iv;
        iv.type = MsgType::Inval;
        iv.addr = line;
        iv.dst = n;
        iv.requester = self;
        iv.txnId = msg.txnId;
        iv.version = e.dir.memVersion; // superseded epoch (see below)
        _hub.send(iv);
    });

    // EXCL with the old sharing vector retained (Section 2.4.2): the
    // vector is the speculative-update target set; owner is the
    // added ownerID field.
    e.dir.state = DirState::Excl;
    e.dir.owner = _hub.id();

    Message grant;
    grant.type = MsgType::RespExclData;
    grant.addr = line;
    grant.dst = _hub.id();
    grant.version = e.dir.memVersion;
    grant.ackCount = acks;
    grant.txnId = msg.txnId;
    _hub.send(grant); // hub-internal, localLatency
}

void
ProducerController::serveRemoteRead(const Message &msg, ProducerEntry &e)
{
    const Addr line = msg.addr;
    const NodeId req = msg.requester;

    if (e.dir.state == DirState::Excl) {
        if (_cfg.updatesEnabled() && e.intervPending &&
            e.pendingNacks == 0) {
            // The push is imminent; by the time the requester retries
            // it will normally find the update in its RAC ("the
            // update message is treated as the response"). A retry
            // that still finds the epoch open (long delay intervals)
            // falls through to an on-demand downgrade instead of
            // stalling for the whole interval.
            if (_arb.enabled() &&
                _arb.park(msg, _hub.curTick(), _hub.stats()))
                return;
            ++e.pendingNacks;
            _hub.sendNack(MsgType::Nack, line, req, msg.txnId);
            return;
        }
        // Delegation-only (or infinite delay): downgrade on demand.
        // This is the 2-hop miss that delegation buys.
        const Version v =
            _hub.cacheCtrl().localDowngrade(line, e.dir.memVersion);
        completeEpoch(line, e, v);
    }

    e.dir.sharers.add(req);
    Message resp;
    resp.type = MsgType::RespSharedData;
    resp.addr = line;
    resp.dst = req;
    resp.version = e.dir.memVersion;
    resp.txnId = msg.txnId;
    _hub.sendIn(_cfg.hubLatency, resp);
}

void
ProducerController::onLocalWriteComplete(Addr line)
{
    verify::ConformanceScope scope(
        _hub.observer(), verify::Ctrl::Producer, _hub.id(), line,
        verify::PEvent::LocalWriteComplete,
        [this, line]() { return producerStateGetter(_hub, line); });

    DelegateCache *dc = _hub.delegateCache();
    ProducerEntry *e = dc ? dc->producerFind(line) : nullptr;
    if (!e)
        return;
    ++e->epochs;
    e->pendingNacks = 0;

    const bool arm = _cfg.updatesEnabled() && !e->intervPending &&
                     _cfg.interventionDelay != maxTick;
    // ("infinite" interventionDelay never intervenes; Figure 9.)
    if (arm) {
        e->intervPending = true;
        const std::uint64_t token = _nextToken++;
        _timerTokens[line] = token;
        ++_hub.stats().delayedInterventions;
        _hub.eventQueue().scheduleIn(
            _cfg.interventionDelay, [this, line, token]() {
                fireDelayedIntervention(line, token);
            });
    }
    // Drain after (not before) arming, so a parked read defers to the
    // imminent speculative push instead of forcing an on-demand
    // downgrade.
    maybeDrain(line);
}

void
ProducerController::fireDelayedIntervention(Addr line,
                                            std::uint64_t token)
{
    verify::ConformanceScope scope(
        _hub.observer(), verify::Ctrl::Producer, _hub.id(), line,
        verify::PEvent::DelayedInterv,
        [this, line]() { return producerStateGetter(_hub, line); });

    const std::uint64_t *armed = _timerTokens.find(line);
    if (!armed || *armed != token)
        return; // undelegated or re-armed since

    DelegateCache *dc = _hub.delegateCache();
    ProducerEntry *e = dc->producerFind(line);
    if (!e || !e->intervPending)
        return;
    e->intervPending = false;

    if (e->dir.state != DirState::Excl)
        return; // a flush already closed the epoch

    // Downgrade the processor copy (bus intervention) and capture the
    // freshly written data.
    const Version v =
        _hub.cacheCtrl().localDowngrade(line, e->dir.memVersion);
    completeEpoch(line, *e, v);
}

void
ProducerController::completeEpoch(Addr line, ProducerEntry &e,
                                  Version version)
{
    Rac *rac = _hub.rac();
    rac->updatePinned(line, version);
    e.dir.memVersion = version;
    e.intervPending = false;
    e.pendingNacks = 0;
    _timerTokens.erase(line);
    _lastDowngrade[line] = _hub.curTick();

    const NodeId self = _hub.id();
    e.dir.state = DirState::Shared;
    e.dir.sharers.add(self);
    e.dir.owner = invalidNode;

    if (_cfg.updatesEnabled() && _cfg.interventionDelay != maxTick) {
        // Push the new data to the predicted consumers (Section
        // 2.4.2: the nodes that consumed the last version). With an
        // "infinite" delay (Figure 9) there are no speculative
        // pushes. Skipping only ourselves, a coarse vector also
        // pushes to our group-mates; spurious pushes land in their
        // RACs or are dropped.
        e.dir.sharers.forEachNode(_cfg.numNodes, [&](NodeId n) {
            if (n == self)
                return;
            ++_hub.stats().updatesSent;
            Message up;
            up.type = MsgType::Update;
            up.addr = line;
            up.dst = n;
            up.version = version;
            _hub.sendIn(_cfg.busLatency, up);
        });
    }
    maybeDrain(line);
}

void
ProducerController::onLocalFlush(Addr line, Version version)
{
    verify::ConformanceScope scope(
        _hub.observer(), verify::Ctrl::Producer, _hub.id(), line,
        verify::PEvent::LocalFlush,
        [this, line]() { return producerStateGetter(_hub, line); });

    DelegateCache *dc = _hub.delegateCache();
    ProducerEntry *e = dc ? dc->producerFind(line) : nullptr;
    if (!e)
        panic("flush hook without producer entry");

    if (e->dir.state == DirState::Excl) {
        // The eviction acts as an early intervention: the write burst
        // is over, absorb the data and push.
        completeEpoch(line, *e, version);
    } else {
        _hub.rac()->updatePinned(line, version);
        e->dir.memVersion = version;
    }
}

void
ProducerController::undelegateForRacPressure(Addr line)
{
    verify::ConformanceScope scope(
        _hub.observer(), verify::Ctrl::Producer, _hub.id(), line,
        verify::PEvent::RacPressure,
        [this, line]() { return producerStateGetter(_hub, line); });

    DelegateCache *dc = _hub.delegateCache();
    ProducerEntry *e = dc ? dc->producerFind(line) : nullptr;
    if (!e)
        return;
    if (_hub.cacheCtrl().hasMshr(line))
        return; // unsafe now; the insertPinned caller copes
    ++_hub.stats().undelegationsFlush;
    undelegate(line, *e);
}

void
ProducerController::undelegate(Addr line, ProducerEntry &e,
                               NodeId pending_req, MsgType pending_type,
                               std::uint64_t pending_txn)
{
    DelegateCache *dc = _hub.delegateCache();
    Rac *rac = _hub.rac();

    // Cancel any pending delayed intervention.
    e.intervPending = false;
    _timerTokens.erase(line);

    Message und;
    und.type = MsgType::Undele;
    und.addr = line;
    und.dst = _hub.homeOf(line);
    und.dirty = true;
    und.pendingReq = pending_req;
    und.pendingType = pending_type;
    und.txnId = pending_txn;
    und.version = e.dir.memVersion;

    if (e.dir.state == DirState::Excl) {
        // Our processor still holds the only (modified) copy; the RAC
        // surrogate is stale and must go.
        und.owner = _hub.id();
        rac->unpin(line, /*keep_data=*/false);
    } else {
        und.owner = invalidNode;
        // We keep a plain S copy in the RAC; make sure the restored
        // directory covers us.
        und.sharers = _hub.network().acquireSharers();
        *und.sharers = e.dir.sharers;
        und.sharers->add(_hub.id());
        rac->unpin(line, /*keep_data=*/true);
    }

    // Bounce any parked requests back toward the real home: we are no
    // longer the acting home, and the restored directory will service
    // their retries.
    _arb.flush(line, [this](const Message &pm) {
        _hub.sendNack(MsgType::NackNotHome, pm.addr, pm.requester,
                      pm.txnId);
    });

    dc->producer().invalidate(line);
    _lastDowngrade.erase(line);
    _hub.send(und);
}

} // namespace pcsim
