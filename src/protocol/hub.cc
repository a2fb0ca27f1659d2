#include "src/protocol/hub.hh"

#include "src/protocol/policy.hh"
#include "src/sim/logging.hh"
#include "src/verify/observer.hh"
#include "src/verify/trace.hh"

namespace pcsim
{

Hub::Hub(EventQueue &eq, Network &net, MemoryMap &mem_map,
         CoherenceChecker &checker, const ProtocolConfig &cfg, NodeId id,
         Rng rng)
    : SimObject(eq),
      _id(id),
      _cfg(cfg),
      _lineMask(~Addr{cfg.lineBytes - 1}),
      _net(net),
      _memMap(mem_map),
      _checker(checker),
      _policy(&policyFor(cfg.kind))
{
    if (cfg.delegationEnabled() && !cfg.racEnabled)
        fatal("delegation requires a RAC (pinned surrogate memory)");
    if (cfg.updatesEnabled() && !cfg.delegationEnabled())
        fatal("speculative updates require delegation");

    if (cfg.racEnabled)
        _rac = std::make_unique<Rac>(cfg.rac, rng.fork());
    if (cfg.delegationEnabled())
        _delegate = std::make_unique<DelegateCache>(cfg.delegate,
                                                    rng.fork());

    _cacheCtrl = std::make_unique<CacheController>(*this, rng.fork());
    _dirCtrl = std::make_unique<DirController>(*this, rng.fork());
    _prodCtrl = std::make_unique<ProducerController>(*this);

    _stats.detectorBitsPerEntry = pcDetectorBitsPerEntry(cfg.numNodes);

    net.registerHandler(id, this);
    checker.addNode(this);
}

Hub::~Hub() = default;

MaterializedSets
Hub::materializedSets() const
{
    MaterializedSets m;
    m.l1 = _cacheCtrl->l1MaterializedSets();
    m.l2 = _cacheCtrl->l2MaterializedSets();
    m.rac = _rac ? _rac->materializedSets() : 0;
    m.dirCache = _dirCtrl->dirCache().materializedSets();
    m.delegate = _delegate ? _delegate->materializedSets() : 0;
    return m;
}

void
Hub::cpuAccess(bool is_write, Addr addr, AccessCallback done)
{
    _cacheCtrl->access(is_write, addr, std::move(done));
}

bool
Hub::parkSpin(Addr line, Version v, Tick spin_delay,
               AccessCallback on_poll)
{
    if (!_cacheCtrl->readHitReturns(line, v))
        return false;
    _spin.arm(line, v, curTick() + spin_delay, _eq.childOrder(),
              _cacheCtrl->l1HitLatency(), spin_delay, std::move(on_poll));
    return true;
}

void
Hub::settleSpin(Tick boundary)
{
    if (_spin.armed())
        _cacheCtrl->creditReadHits(_spin.line(), _spin.settle(boundary));
}

void
Hub::wakeSpin()
{
    const Addr line = _spin.line();
    SpinWatch::Resume r = _spin.wake(curTick(), _eq.executing());
    _cacheCtrl->creditReadHits(line, r.polls);
    if (r.completion) {
        _eq.scheduleAsIf(r.when, r.order,
                         [done = std::move(r.onPoll), v = r.version]() {
                             done(v);
                         });
    } else {
        _eq.scheduleAsIf(r.when, r.order,
                         [this, line, done = std::move(r.onPoll)]() mutable {
                             cpuAccess(false, line, std::move(done));
                         });
    }
}

void
Hub::send(const Message &msg)
{
    if (_observer)
        _observer->noteSend(msg);
    Message *pm = _net.acquireMessage();
    *pm = msg;
    pm->src = _id;
    _net.sendAcquired(pm);
}

void
Hub::sendAt(Tick when, const Message &msg)
{
    if (_observer)
        _observer->noteSend(msg);
    Message *pm = _net.acquireMessage();
    *pm = msg;
    pm->src = _id;
    _eq.schedule(when, [this, pm]() { _net.sendAcquired(pm); });
}

std::string
Hub::lineTrace(Addr line) const
{
    return _trace ? _trace->format(line) : std::string();
}

void
Hub::handleMessage(const Message &msg)
{
    if (_trace)
        _trace->record(msg, curTick());

    // A parked spinner's polls read the flag as it was before this
    // delivery: settle the elided chain before anything changes.
    if (_spin.watching(msg.addr))
        wakeSpin();

    switch (msg.type) {
      case MsgType::ReqShared:
      case MsgType::ReqExcl:
      case MsgType::ReqUpgrade:
        if (_cfg.delegationEnabled() && _prodCtrl->isDelegated(msg.addr)) {
            _prodCtrl->handleRequest(msg);
        } else if (homeOf(msg.addr) == _id) {
            _dirCtrl->handleRequest(msg);
        } else {
            // A stale consumer-table hint pointed here after we
            // undelegated: bounce the requester back to the home.
            Message nack;
            nack.type = MsgType::NackNotHome;
            nack.addr = msg.addr;
            nack.dst = msg.requester;
            nack.txnId = msg.txnId;
            send(nack);
        }
        break;

      case MsgType::WritebackM:
        if (homeOf(msg.addr) != _id)
            panic("hub%u: writeback for line not homed here", _id);
        _dirCtrl->handleWriteback(msg);
        break;

      case MsgType::SharedWriteback:
        _dirCtrl->handleSharedWriteback(msg);
        break;
      case MsgType::TransferAck:
        _dirCtrl->handleTransferAck(msg);
        break;
      case MsgType::IntervNack:
        _dirCtrl->handleIntervNack(msg);
        break;
      case MsgType::Undele:
        _dirCtrl->handleUndele(msg);
        break;

      case MsgType::Delegate:
        _prodCtrl->handleDelegate(msg);
        break;

      case MsgType::Inval:
      case MsgType::IntervDowngrade:
      case MsgType::IntervTransfer:
        _cacheCtrl->handleIntervention(msg);
        break;

      case MsgType::Update:
        _cacheCtrl->handleUpdate(msg);
        break;

      case MsgType::UpdateWB:
        if (homeOf(msg.addr) != _id)
            panic("hub%u: UpdateWB for line not homed here", _id);
        _dirCtrl->handleUpdateWB(msg);
        break;
      case MsgType::UpdateDrop:
        _dirCtrl->handleUpdateDrop(msg);
        break;

      case MsgType::HomeHint:
        _cacheCtrl->handleHomeHint(msg);
        break;

      default:
        // Everything else is a response to one of our requests.
        _cacheCtrl->handleResponse(msg);
        break;
    }
}

LineState
Hub::l2State(Addr line, Version &version) const
{
    return _cacheCtrl->l2State(line, version);
}

bool
Hub::racCopy(Addr line, Version &version, bool &pinned) const
{
    if (!_rac)
        return false;
    const RacEntry *e = _rac->find(line);
    if (!e)
        return false;
    version = e->version;
    pinned = e->pinned;
    return true;
}

const ProducerEntry *
Hub::producerEntry(Addr line) const
{
    return _prodCtrl->entryFor(line);
}

DirEntry
Hub::homeDirEntry(Addr line) const
{
    return _dirCtrl->dirEntry(line);
}

} // namespace pcsim
