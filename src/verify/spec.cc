#include "src/verify/spec.hh"

#include "src/cache/line_state.hh"
#include "src/mem/directory.hh"
#include "src/sim/logging.hh"

namespace pcsim::verify
{

const char *
ctrlName(Ctrl c)
{
    switch (c) {
      case Ctrl::Cache:
        return "cache";
      case Ctrl::Dir:
        return "dir";
      case Ctrl::Producer:
        return "producer";
      default:
        return "?";
    }
}

const char *
eventName(PEvent e)
{
    switch (e) {
#define PCSIM_CASE(name, ...)                                             \
      case PEvent::name: return #name;
      PCSIM_MSG_TYPES(PCSIM_CASE)
      PCSIM_LOCAL_EVENTS(PCSIM_CASE)
#undef PCSIM_CASE
      case PEvent::NumPEvents: break;
    }
    return "?";
}

TransitionSpec::TransitionSpec()
    : _ruleIndex(kIndexSize, -1), _impossibleIndex(kIndexSize, false)
{
}

void
TransitionSpec::declareState(Ctrl c, StateId s, std::string name)
{
    if (s >= kMaxStates)
        panic("spec: state id %u out of range", unsigned(s));
    _states[static_cast<unsigned>(c)].emplace_back(s, std::move(name));
}

void
TransitionSpec::setInitial(Ctrl c, StateId s)
{
    _initial[static_cast<unsigned>(c)] = s;
}

void
TransitionSpec::add(TransitionRule rule)
{
    rule.sendMask = 0;
    for (MsgType t : rule.sends)
        rule.sendMask |= 1ull << static_cast<unsigned>(t);
    const unsigned key = keyOf(rule.ctrl, rule.state, rule.event);
    if (_ruleIndex[key] < 0)
        _ruleIndex[key] = static_cast<std::int16_t>(_rules.size());
    _rules.push_back(std::move(rule));
}

void
TransitionSpec::declareImpossible(Ctrl c, StateId s, PEvent e,
                                  std::string why)
{
    _impossible.push_back({c, s, e, std::move(why)});
    _impossibleIndex[keyOf(c, s, e)] = true;
}

const TransitionRule *
TransitionSpec::find(Ctrl c, StateId s, PEvent e) const
{
    if (s >= kMaxStates)
        return nullptr;
    const std::int16_t i = _ruleIndex[keyOf(c, s, e)];
    return i < 0 ? nullptr : &_rules[i];
}

TransitionRule *
TransitionSpec::findMutable(Ctrl c, StateId s, PEvent e)
{
    return const_cast<TransitionRule *>(
        static_cast<const TransitionSpec *>(this)->find(c, s, e));
}

bool
TransitionSpec::removeRule(Ctrl c, StateId s, PEvent e)
{
    const std::size_t before = _rules.size();
    std::vector<TransitionRule> kept;
    kept.reserve(before);
    for (auto &r : _rules) {
        if (r.ctrl == c && r.state == s && r.event == e)
            continue;
        kept.push_back(std::move(r));
    }
    _rules = std::move(kept);
    rebuildIndex();
    return _rules.size() != before;
}

void
TransitionSpec::rebuildIndex()
{
    _ruleIndex.assign(kIndexSize, -1);
    for (std::size_t i = 0; i < _rules.size(); ++i) {
        const unsigned key =
            keyOf(_rules[i].ctrl, _rules[i].state, _rules[i].event);
        if (_ruleIndex[key] < 0)
            _ruleIndex[key] = static_cast<std::int16_t>(i);
    }
}

bool
TransitionSpec::isImpossible(Ctrl c, StateId s, PEvent e) const
{
    return s < kMaxStates && _impossibleIndex[keyOf(c, s, e)];
}

std::string
TransitionSpec::stateName(Ctrl c, StateId s) const
{
    for (const auto &[id, name] : states(c))
        if (id == s)
            return name;
    return "state" + std::to_string(s);
}

const std::vector<PEvent> &
TransitionSpec::relevantEvents(Ctrl c)
{
    using E = PEvent;
    static const std::vector<PEvent> cache = {
        E::CpuLoad,        E::CpuStore,       E::Evict,
        E::LocalDowngrade, E::Inval,          E::IntervDowngrade,
        E::IntervTransfer, E::RespSharedData, E::SharedResp,
        E::RespExclData,   E::ExclResp,       E::RespUpgradeAck,
        E::InvalAck,       E::WritebackAck,   E::Nack,
        E::NackNotHome,    E::HomeHint,       E::Update,
    };
    static const std::vector<PEvent> dir = {
        E::ReqShared,  E::ReqExcl,         E::ReqUpgrade,
        E::WritebackM, E::SharedWriteback, E::TransferAck,
        E::IntervNack, E::Undele,
    };
    static const std::vector<PEvent> producer = {
        E::Delegate,      E::ReqShared,          E::ReqExcl,
        E::ReqUpgrade,    E::LocalWriteComplete, E::DelayedInterv,
        E::LocalFlush,    E::RacPressure,        E::Evict,
    };
    switch (c) {
      case Ctrl::Dir:
        return dir;
      case Ctrl::Producer:
        return producer;
      case Ctrl::Cache:
      default:
        return cache;
    }
}

void
TransitionSpec::setRelevantEvents(Ctrl c, std::vector<PEvent> events)
{
    _relevant[static_cast<unsigned>(c)] = std::move(events);
}

const std::vector<PEvent> &
TransitionSpec::relevant(Ctrl c) const
{
    const auto &override_ = _relevant[static_cast<unsigned>(c)];
    return override_.empty() ? relevantEvents(c) : override_;
}

namespace
{

using NextStates = std::vector<StateId>;
using Sends = std::vector<MsgType>;

void
rule(TransitionSpec &sp, Ctrl c, StateId s, PEvent e, NextStates next,
     Sends sends = {})
{
    TransitionRule r;
    r.ctrl = c;
    r.state = s;
    r.event = e;
    r.next = std::move(next);
    r.sends = std::move(sends);
    sp.add(std::move(r));
}

void
buildCacheRules(TransitionSpec &sp)
{
    constexpr Ctrl C = Ctrl::Cache;
    constexpr StateId I = static_cast<StateId>(LineState::Invalid);
    constexpr StateId S = static_cast<StateId>(LineState::Shared);
    constexpr StateId M = static_cast<StateId>(LineState::Modified);
    using E = PEvent;
    using T = MsgType;

    sp.declareState(C, I, lineStateName(LineState::Invalid));
    sp.declareState(C, S, lineStateName(LineState::Shared));
    sp.declareState(C, M, lineStateName(LineState::Modified));
    // LineState::Exclusive is deliberately undeclared: complete()
    // installs EXCLUSIVE and performs the store to MODIFIED within
    // one handler, so E is never observable at an event boundary.
    sp.setInitial(C, I);

    // Processor accesses. A load miss may fill from the RAC in the
    // same handler (I -> S); the request itself leaves the state
    // untouched until a response arrives. Filling can evict a victim
    // (the nested Evict event covers the victim line's sends).
    rule(sp, C, I, E::CpuLoad, {I, S}, {T::ReqShared});
    rule(sp, C, S, E::CpuLoad, {S});
    rule(sp, C, M, E::CpuLoad, {M});
    rule(sp, C, I, E::CpuStore, {I}, {T::ReqExcl});
    rule(sp, C, S, E::CpuStore, {S}, {T::ReqUpgrade});
    rule(sp, C, M, E::CpuStore, {M});

    // Replacement. A SHARED victim may be parked in the RAC; a
    // delegated victim is flushed through the producer table (nested
    // LocalFlush event) instead of written back.
    sp.declareImpossible(C, I, E::Evict,
                         "the L2 array stores no invalid entries");
    rule(sp, C, S, E::Evict, {I});
    rule(sp, C, M, E::Evict, {I}, {T::WritebackM});

    // Producer-side self-downgrade (serving a read / delayed
    // intervention against the local M copy).
    rule(sp, C, I, E::LocalDowngrade, {I});
    rule(sp, C, S, E::LocalDowngrade, {S});
    rule(sp, C, M, E::LocalDowngrade, {S});

    // Interventions from the home (or delegated home).
    rule(sp, C, I, E::Inval, {I}, {T::InvalAck});
    rule(sp, C, S, E::Inval, {I}, {T::InvalAck});
    rule(sp, C, M, E::Inval, {I}, {T::InvalAck});
    rule(sp, C, I, E::IntervDowngrade, {I}, {T::IntervNack});
    rule(sp, C, S, E::IntervDowngrade, {S},
         {T::SharedResp, T::SharedWriteback, T::IntervNack});
    rule(sp, C, M, E::IntervDowngrade, {S},
         {T::SharedResp, T::SharedWriteback});
    rule(sp, C, I, E::IntervTransfer, {I}, {T::IntervNack});
    rule(sp, C, S, E::IntervTransfer, {S, I},
         {T::ExclResp, T::TransferAck, T::IntervNack});
    rule(sp, C, M, E::IntervTransfer, {I},
         {T::ExclResp, T::TransferAck});

    // Data replies. Stale replies (txn id mismatch) self-loop.
    for (E e : {E::RespSharedData, E::SharedResp}) {
        rule(sp, C, I, e, {I, S});
        rule(sp, C, S, e, {S});
        rule(sp, C, M, e, {M});
    }
    for (E e : {E::RespExclData, E::ExclResp}) {
        rule(sp, C, I, e, {I, M});
        rule(sp, C, S, e, {S, M});
        rule(sp, C, M, e, {M});
    }
    // An upgrade ack that raced an invalidation re-requests the full
    // line (I -> ReqExcl resend).
    rule(sp, C, I, E::RespUpgradeAck, {I}, {T::ReqExcl});
    rule(sp, C, S, E::RespUpgradeAck, {S, M});
    rule(sp, C, M, E::RespUpgradeAck, {M});
    rule(sp, C, I, E::InvalAck, {I, M});
    rule(sp, C, S, E::InvalAck, {S, M});
    rule(sp, C, M, E::InvalAck, {M});

    // Control replies: acks, NACK retries, hints. A NACK retry may
    // complete a read from a RAC copy that arrived meanwhile (the mc
    // model fuses the NACK and the RAC refill into one transition, so
    // the spec admits I -> S here).
    for (E e : {E::WritebackAck, E::NackNotHome, E::HomeHint}) {
        rule(sp, C, I, e, {I});
        rule(sp, C, S, e, {S});
        rule(sp, C, M, e, {M});
    }
    rule(sp, C, I, E::Nack, {I, S});
    rule(sp, C, S, E::Nack, {S});
    rule(sp, C, M, E::Nack, {M});

    // Speculative updates: may satisfy an outstanding read miss, else
    // land in the RAC (no L2 state change).
    rule(sp, C, I, E::Update, {I, S});
    rule(sp, C, S, E::Update, {S});
    rule(sp, C, M, E::Update, {M});
}

void
buildDirRules(TransitionSpec &sp)
{
    constexpr Ctrl C = Ctrl::Dir;
    constexpr StateId U = static_cast<StateId>(DirState::Unowned);
    constexpr StateId S = static_cast<StateId>(DirState::Shared);
    constexpr StateId X = static_cast<StateId>(DirState::Excl);
    constexpr StateId BR = static_cast<StateId>(DirState::BusyRead);
    constexpr StateId BX = static_cast<StateId>(DirState::BusyExcl);
    constexpr StateId D = static_cast<StateId>(DirState::Dele);
    using E = PEvent;
    using T = MsgType;

    for (DirState ds : {DirState::Unowned, DirState::Shared,
                        DirState::Excl, DirState::BusyRead,
                        DirState::BusyExcl, DirState::Dele})
        sp.declareState(C, static_cast<StateId>(ds), dirStateName(ds));
    sp.setInitial(C, U);

    // Every request self-loops with a NACK when the directory cache
    // set is wedged (all ways busy), independent of the line's state.
    rule(sp, C, U, E::ReqShared, {S, U}, {T::RespSharedData, T::Nack});
    rule(sp, C, S, E::ReqShared, {S}, {T::RespSharedData, T::Nack});
    rule(sp, C, X, E::ReqShared, {BR, X},
         {T::IntervDowngrade, T::Nack});
    rule(sp, C, BR, E::ReqShared, {BR}, {T::Nack});
    rule(sp, C, BX, E::ReqShared, {BX}, {T::Nack});
    rule(sp, C, D, E::ReqShared, {D},
         {T::ReqShared, T::HomeHint, T::Nack});

    // Writes: UNOWNED/SHARED may grant, or delegate to a detected
    // producer (DELE + DELEGATE message) instead.
    rule(sp, C, U, E::ReqExcl, {X, D, U},
         {T::RespExclData, T::Delegate, T::Nack});
    rule(sp, C, S, E::ReqExcl, {X, D, S},
         {T::Inval, T::RespExclData, T::Delegate, T::Nack});
    rule(sp, C, X, E::ReqExcl, {BX, X}, {T::IntervTransfer, T::Nack});
    rule(sp, C, BR, E::ReqExcl, {BR}, {T::Nack});
    rule(sp, C, BX, E::ReqExcl, {BX}, {T::Nack});
    rule(sp, C, D, E::ReqExcl, {D}, {T::ReqExcl, T::HomeHint, T::Nack});

    // Upgrades additionally answer RespUpgradeAck when the requester
    // still holds its SHARED copy.
    rule(sp, C, U, E::ReqUpgrade, {X, D, U},
         {T::RespExclData, T::Delegate, T::Nack});
    rule(sp, C, S, E::ReqUpgrade, {X, D, S},
         {T::Inval, T::RespUpgradeAck, T::RespExclData, T::Delegate,
          T::Nack});
    rule(sp, C, X, E::ReqUpgrade, {BX, X},
         {T::IntervTransfer, T::Nack});
    rule(sp, C, BR, E::ReqUpgrade, {BR}, {T::Nack});
    rule(sp, C, BX, E::ReqUpgrade, {BX}, {T::Nack});
    rule(sp, C, D, E::ReqUpgrade, {D},
         {T::ReqUpgrade, T::HomeHint, T::Nack});

    // Writebacks. A wedged set defers (self-loop, no ack yet); a busy
    // entry absorbs the race (pendingWb) and stays busy.
    rule(sp, C, X, E::WritebackM, {U, X}, {T::WritebackAck});
    rule(sp, C, BR, E::WritebackM, {BR}, {T::WritebackAck});
    rule(sp, C, BX, E::WritebackM, {BX}, {T::WritebackAck});
    sp.declareImpossible(C, U, E::WritebackM,
                         "nothing owns an UNOWNED line");
    sp.declareImpossible(C, S, E::WritebackM,
                         "nothing owns a SHARED line");
    sp.declareImpossible(C, D, E::WritebackM,
                         "owned delegated lines flush via the producer "
                         "table, not WRITEBACK_M to the home");

    rule(sp, C, BR, E::SharedWriteback, {S});
    for (StateId s : {U, S, X, BX, D})
        sp.declareImpossible(C, s, E::SharedWriteback,
                             "SHWB only answers a BUSY_READ "
                             "intervention");

    rule(sp, C, BX, E::TransferAck, {X});
    for (StateId s : {U, S, X, BR, D})
        sp.declareImpossible(C, s, E::TransferAck,
                             "TRANSFER_ACK only answers a BUSY_EXCL "
                             "intervention");

    // Intervention NACKs: the target no longer held the line. With a
    // writeback absorbed meanwhile the home answers from memory; else
    // it NACKs the requester and restores EXCL. Stale ones (wrong
    // pending owner, or the transaction already resolved) self-loop.
    rule(sp, C, BR, E::IntervNack, {S, X, BR},
         {T::RespSharedData, T::Nack});
    rule(sp, C, BX, E::IntervNack, {X, BX}, {T::RespExclData, T::Nack});
    for (StateId s : {U, S, X, D})
        rule(sp, C, s, E::IntervNack, {s});

    // Undelegation hands the directory image back; a wedged set
    // defers (self-loop). Any pending request is re-injected later.
    rule(sp, C, D, E::Undele, {U, S, X, D});
    for (StateId s : {U, S, X, BR, BX})
        sp.declareImpossible(C, s, E::Undele,
                             "only the delegated producer sends "
                             "UNDELE, and only while DELE");
}

void
buildProducerRules(TransitionSpec &sp)
{
    constexpr Ctrl C = Ctrl::Producer;
    using E = PEvent;
    using T = MsgType;

    sp.declareState(C, prodNone, "None");
    sp.declareState(C, prodShared, "Shared");
    sp.declareState(C, prodExcl, "Excl");
    sp.setInitial(C, prodNone);

    // Accepting a delegation. Allocation may fail (immediate UNDELE
    // handback) or the pinned RAC insert may be refused (undelegate);
    // a pending local write is served in the same handler (-> Excl,
    // INVAL fan-out + self grant). Accepting can also capacity-evict
    // a victim entry (nested Evict event).
    rule(sp, C, prodNone, E::Delegate, {prodNone, prodShared, prodExcl},
         {T::Undele, T::Inval, T::RespExclData});
    sp.declareImpossible(C, prodShared, E::Delegate,
                         "the home is DELE while delegated and cannot "
                         "delegate again");
    sp.declareImpossible(C, prodExcl, E::Delegate,
                         "the home is DELE while delegated and cannot "
                         "delegate again");

    // Requests forwarded to the delegated home. Reads are served in
    // place (an owned line is first self-downgraded, possibly pushing
    // UPDATEs); remote writes force undelegation.
    sp.declareImpossible(C, prodNone, E::ReqShared,
                         "the hub routes requests here only while the "
                         "producer table holds the line");
    rule(sp, C, prodShared, E::ReqShared, {prodShared},
         {T::RespSharedData, T::Nack});
    rule(sp, C, prodExcl, E::ReqShared, {prodShared, prodExcl},
         {T::Nack, T::RespSharedData, T::Update});
    for (E e : {E::ReqExcl, E::ReqUpgrade}) {
        sp.declareImpossible(C, prodNone, e,
                             "the hub routes requests here only while "
                             "the producer table holds the line");
        rule(sp, C, prodShared, e, {prodExcl, prodNone, prodShared},
             {T::Inval, T::RespExclData, T::Undele, T::Nack});
        rule(sp, C, prodExcl, e, {prodNone, prodExcl},
             {T::Undele, T::Nack});
    }

    // Local epoch bookkeeping: completing a write only arms the
    // delayed-intervention timer.
    for (StateId s : {prodNone, prodShared, prodExcl})
        rule(sp, C, s, E::LocalWriteComplete, {s});

    // The delayed self-intervention downgrades an owned line and
    // pushes speculative updates; stale timers self-loop.
    rule(sp, C, prodNone, E::DelayedInterv, {prodNone});
    rule(sp, C, prodShared, E::DelayedInterv, {prodShared});
    rule(sp, C, prodExcl, E::DelayedInterv, {prodShared, prodExcl},
         {T::Update});

    // Local eviction of the delegated line's data copy.
    sp.declareImpossible(C, prodNone, E::LocalFlush,
                         "only delegated lines flush through the "
                         "producer table");
    rule(sp, C, prodShared, E::LocalFlush, {prodShared});
    rule(sp, C, prodExcl, E::LocalFlush, {prodShared}, {T::Update});

    // RAC pressure against the pinned surrogate-memory entry: give
    // the line back unless a local miss is in flight.
    rule(sp, C, prodNone, E::RacPressure, {prodNone});
    rule(sp, C, prodShared, E::RacPressure, {prodNone, prodShared},
         {T::Undele});
    rule(sp, C, prodExcl, E::RacPressure, {prodNone, prodExcl},
         {T::Undele});

    // Producer-table capacity eviction undelegates the victim.
    sp.declareImpossible(C, prodNone, E::Evict,
                         "the producer table stores no empty entries");
    rule(sp, C, prodShared, E::Evict, {prodNone}, {T::Undele});
    rule(sp, C, prodExcl, E::Evict, {prodNone}, {T::Undele});
}

// --- Write-update / adaptive-hybrid policies ------------------------
//
// The update-based policies (src/protocol/policy.hh) speak a much
// smaller vocabulary: caches only ever hold INVALID or SHARED lines
// (stores self-downgrade within the UpdGrant handler), the directory
// serializes write episodes through BUSY_UPD, and the producer table
// is never engaged. Each spec carries its own relevantEvents override
// so the unhandled-pair lint pass matches that vocabulary.

void
buildUpdateCacheRules(TransitionSpec &sp, bool adaptive)
{
    constexpr Ctrl C = Ctrl::Cache;
    constexpr StateId I = static_cast<StateId>(LineState::Invalid);
    constexpr StateId S = static_cast<StateId>(LineState::Shared);
    using E = PEvent;
    using T = MsgType;

    sp.declareState(C, I, lineStateName(LineState::Invalid));
    sp.declareState(C, S, lineStateName(LineState::Shared));
    // MODIFIED/EXCLUSIVE are deliberately undeclared: the UpdGrant
    // handler performs the store and self-downgrades to SHARED before
    // returning, so no owned state is observable at an event boundary.
    sp.setInitial(C, I);

    // Processor accesses (no RAC under update-based policies, so a
    // load miss cannot fill within its own handler).
    rule(sp, C, I, E::CpuLoad, {I}, {T::ReqShared});
    rule(sp, C, S, E::CpuLoad, {S});
    rule(sp, C, I, E::CpuStore, {I}, {T::ReqExcl});
    rule(sp, C, S, E::CpuStore, {S}, {T::ReqUpgrade});

    // Replacement: SHARED copies are silently dropped (the home keeps
    // the node listed and keeps updating; pushes land at INVALID).
    sp.declareImpossible(C, I, E::Evict,
                         "the L2 array stores no invalid entries");
    rule(sp, C, S, E::Evict, {I});

    // Read data replies; stale ones (txn id mismatch) self-loop.
    rule(sp, C, I, E::RespSharedData, {I, S});
    rule(sp, C, S, E::RespSharedData, {S});

    // The write grant: perform the store, self-downgrade to SHARED
    // and return the new data to the home in the same handler.
    rule(sp, C, I, E::UpdGrant, {I, S}, {T::UpdateWB});
    rule(sp, C, S, E::UpdGrant, {S}, {T::UpdateWB});

    // Pushed updates refresh the SHARED copy in place (the adaptive
    // hybrid may instead self-invalidate and leave the stream), or
    // satisfy an outstanding read miss.
    rule(sp, C, I, E::Update, {I, S});
    if (adaptive)
        rule(sp, C, S, E::Update, {S, I}, {T::UpdateDrop});
    else
        rule(sp, C, S, E::Update, {S});

    // NACK retries reschedule outside the handler.
    rule(sp, C, I, E::Nack, {I});
    rule(sp, C, S, E::Nack, {S});

    std::vector<PEvent> ev = {E::CpuLoad, E::CpuStore,  E::Evict,
                              E::RespSharedData, E::UpdGrant,
                              E::Update,  E::Nack};
    sp.setRelevantEvents(C, std::move(ev));
}

void
buildUpdateDirRules(TransitionSpec &sp, bool adaptive)
{
    constexpr Ctrl C = Ctrl::Dir;
    constexpr StateId U = static_cast<StateId>(DirState::Unowned);
    constexpr StateId S = static_cast<StateId>(DirState::Shared);
    constexpr StateId BU = static_cast<StateId>(DirState::BusyUpd);
    using E = PEvent;
    using T = MsgType;

    for (DirState ds :
         {DirState::Unowned, DirState::Shared, DirState::BusyUpd})
        sp.declareState(C, static_cast<StateId>(ds), dirStateName(ds));
    sp.setInitial(C, U);

    // Reads are served from memory in every stable state; a wedged
    // directory-cache set NACKs with the state untouched.
    rule(sp, C, U, E::ReqShared, {S, U}, {T::RespSharedData, T::Nack});
    rule(sp, C, S, E::ReqShared, {S}, {T::RespSharedData, T::Nack});
    rule(sp, C, BU, E::ReqShared, {BU}, {T::Nack});

    // Writes open an update episode: BUSY_UPD + UpdGrant; a second
    // writer is NACKed until the UpdateWB closes the episode.
    for (E e : {E::ReqExcl, E::ReqUpgrade}) {
        rule(sp, C, U, e, {BU, U}, {T::UpdGrant, T::Nack});
        rule(sp, C, S, e, {BU, S}, {T::UpdGrant, T::Nack});
        rule(sp, C, BU, e, {BU}, {T::Nack});
    }

    // The writer's data return: commit to memory, fan updates out to
    // the other sharers, and list the writer as a sharer.
    rule(sp, C, BU, E::UpdateWB, {S}, {T::Update});
    sp.declareImpossible(C, U, E::UpdateWB,
                         "UpdateWB only closes a BUSY_UPD episode");
    sp.declareImpossible(C, S, E::UpdateWB,
                         "UpdateWB only closes a BUSY_UPD episode");

    if (adaptive) {
        // A consumer leaving the update stream. Exact sharer vectors
        // drop the node; coarse vectors keep the group listed (the
        // consumer keeps dropping pushes at INVALID).
        rule(sp, C, U, E::UpdateDrop, {U});
        rule(sp, C, S, E::UpdateDrop, {S});
        rule(sp, C, BU, E::UpdateDrop, {BU});
    }

    std::vector<PEvent> ev = {E::ReqShared, E::ReqExcl, E::ReqUpgrade,
                              E::UpdateWB};
    if (adaptive)
        ev.push_back(E::UpdateDrop);
    sp.setRelevantEvents(C, std::move(ev));
}

} // namespace

TransitionSpec
buildProtocolSpec()
{
    TransitionSpec sp;
    buildCacheRules(sp);
    buildDirRules(sp);
    buildProducerRules(sp);
    return sp;
}

const TransitionSpec &
protocolSpec()
{
    static const TransitionSpec spec = buildProtocolSpec();
    return spec;
}

TransitionSpec
buildWriteUpdateSpec()
{
    TransitionSpec sp;
    buildUpdateCacheRules(sp, /*adaptive=*/false);
    buildUpdateDirRules(sp, /*adaptive=*/false);
    // The producer table is never engaged: no states declared, so the
    // lint passes have nothing to check there and the runtime observer
    // never sees a producer frame.
    return sp;
}

const TransitionSpec &
writeUpdateSpec()
{
    static const TransitionSpec spec = buildWriteUpdateSpec();
    return spec;
}

TransitionSpec
buildAdaptiveHybridSpec()
{
    TransitionSpec sp;
    buildUpdateCacheRules(sp, /*adaptive=*/true);
    buildUpdateDirRules(sp, /*adaptive=*/true);
    return sp;
}

const TransitionSpec &
adaptiveHybridSpec()
{
    static const TransitionSpec spec = buildAdaptiveHybridSpec();
    return spec;
}

} // namespace pcsim::verify
