#include "src/mc/protocol_model.hh"

#include <algorithm>
#include <cstring>
#include <sstream>

namespace pcsim
{
namespace mc
{

namespace
{

using verify::Ctrl;
using verify::PEvent;
using verify::StateId;

constexpr std::uint8_t none = 0xf;

std::uint8_t
popcount(std::uint8_t m)
{
    return static_cast<std::uint8_t>(__builtin_popcount(m));
}

/** A LineState or DirState in the spec's encoding (its raw value). */
template <typename S>
StateId
specState(S s)
{
    return static_cast<StateId>(s);
}

/** The request a read (1) or write (2) MSHR or parked slot sends. */
MsgType
requestOf(std::uint8_t kind)
{
    return kind == 1 ? MsgType::ReqShared : MsgType::ReqExcl;
}

/** Producer-table state of node @p n in the spec's encoding. */
StateId
prodStateOf(const ProtocolModel::State &s, unsigned n)
{
    if (!s.prodValid || s.prodNode != n)
        return verify::prodNone;
    return s.prodIsExcl ? verify::prodExcl : verify::prodShared;
}

} // namespace

bool
ProtocolModel::State::operator==(const State &o) const
{
    if (cache != o.cache || cacheV != o.cacheV || mshr != o.mshr ||
        mshrHaveData != o.mshrHaveData || mshrV != o.mshrV ||
        mshrAcksNeed != o.mshrAcksNeed ||
        mshrAcksGot != o.mshrAcksGot || readsLeft != o.readsLeft ||
        lastSeen != o.lastSeen)
        return false;
    if (dir != o.dir || sharers != o.sharers || owner != o.owner ||
        pendReq != o.pendReq || pendOwner != o.pendOwner ||
        pendIsWrite != o.pendIsWrite || pendSeq != o.pendSeq ||
        memV != o.memV)
        return false;
    if (prodValid != o.prodValid || prodNode != o.prodNode ||
        prodIsExcl != o.prodIsExcl || prodSharers != o.prodSharers ||
        prodV != o.prodV || intervPending != o.intervPending)
        return false;
    if (parkedType != o.parkedType || parkedReq != o.parkedReq ||
        parkedSeq != o.parkedSeq ||
        prodParkedType != o.prodParkedType ||
        prodParkedReq != o.prodParkedReq ||
        prodParkedSeq != o.prodParkedSeq)
        return false;
    if (racMask != o.racMask || racV != o.racV ||
        writesLeft != o.writesLeft || curV != o.curV ||
        tombV != o.tombV || fillInval != o.fillInval ||
        mshrSeq != o.mshrSeq)
        return false;
    if (chanLen != o.chanLen)
        return false;
    for (unsigned s = 0; s < maxNodes; ++s) {
        for (unsigned d = 0; d < maxNodes; ++d) {
            for (unsigned i = 0; i < chanLen[s][d]; ++i) {
                if (!(chan[s][d][i] == o.chan[s][d][i]))
                    return false;
            }
        }
    }
    return true;
}

std::uint64_t
ProtocolModel::hash(const State &s) const
{
    // FNV-1a over the canonical fields.
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
    };
    for (unsigned n = 0; n < _cfg.nodes; ++n) {
        mix(static_cast<std::uint64_t>(s.cache[n]) | (s.cacheV[n] << 4) |
            (static_cast<std::uint64_t>(s.mshr[n]) << 12) |
            (static_cast<std::uint64_t>(s.mshrV[n]) << 16) |
            (static_cast<std::uint64_t>(s.readsLeft[n]) << 24) |
            (static_cast<std::uint64_t>(s.lastSeen[n]) << 32) |
            (static_cast<std::uint64_t>(s.mshrAcksGot[n]) << 40) |
            (static_cast<std::uint64_t>(
                 static_cast<std::uint8_t>(s.mshrAcksNeed[n]))
             << 48) |
            (static_cast<std::uint64_t>(s.tombV[n]) << 56));
        mix(s.racV[n] | (std::uint64_t(s.fillInval[n]) << 8) |
            (std::uint64_t(s.mshrHaveData[n]) << 9) |
            (std::uint64_t(s.mshrSeq[n]) << 12));
    }
    mix(static_cast<std::uint64_t>(s.dir) | (s.sharers << 4) |
        (std::uint64_t(s.owner) << 12) |
        (std::uint64_t(s.pendReq) << 16) |
        (std::uint64_t(s.pendOwner) << 20) |
        (std::uint64_t(s.pendIsWrite) << 24) |
        (std::uint64_t(s.pendSeq) << 28) |
        (std::uint64_t(s.memV) << 32));
    mix(s.prodValid | (std::uint64_t(s.prodNode) << 4) |
        (std::uint64_t(s.prodIsExcl) << 8) |
        (std::uint64_t(s.prodSharers) << 12) |
        (std::uint64_t(s.prodV) << 20) |
        (std::uint64_t(s.intervPending) << 28) |
        (std::uint64_t(s.racMask) << 32) |
        (std::uint64_t(s.writesLeft) << 40) |
        (std::uint64_t(s.curV) << 48));
    mix(s.parkedType | (std::uint64_t(s.parkedReq) << 4) |
        (std::uint64_t(s.parkedSeq) << 8) |
        (std::uint64_t(s.prodParkedType) << 12) |
        (std::uint64_t(s.prodParkedReq) << 16) |
        (std::uint64_t(s.prodParkedSeq) << 20));
    for (unsigned a = 0; a < _cfg.nodes; ++a) {
        for (unsigned b = 0; b < _cfg.nodes; ++b) {
            mix(s.chanLen[a][b]);
            for (unsigned i = 0; i < s.chanLen[a][b]; ++i) {
                const MMsg &m = s.chan[a][b][i];
                mix(static_cast<std::uint64_t>(m.type) |
                    (std::uint64_t(m.requester) << 8) |
                    (std::uint64_t(m.version) << 16) |
                    (std::uint64_t(m.acks) << 24) |
                    (std::uint64_t(m.sharers) << 32) |
                    (std::uint64_t(m.owner) << 40) |
                    (std::uint64_t(m.seq) << 48));
            }
        }
    }
    return h;
}

ProtocolModel::State
ProtocolModel::initial() const
{
    State s{};
    s.cache.fill(LineState::Invalid);
    s.owner = none;
    s.pendReq = none;
    s.pendOwner = none;
    s.prodNode = none;
    s.writesLeft = static_cast<std::uint8_t>(_cfg.maxWrites);
    for (unsigned n = 0; n < _cfg.nodes; ++n)
        s.readsLeft[n] = static_cast<std::uint8_t>(_cfg.maxReads);
    return s;
}

bool
ProtocolModel::send(State &s, unsigned src, unsigned dst,
                    const MMsg &m) const
{
    auto &len = s.chanLen[src][dst];
    if (len >= chanDepth)
        return false; // channel full: transition disabled
    s.chan[src][dst][len++] = m;
    return true;
}

bool
ProtocolModel::isQuiescent(const State &s) const
{
    // Quiescent = all work budgets consumed, no MSHRs, no messages,
    // no pending intervention.
    for (unsigned n = 0; n < _cfg.nodes; ++n) {
        if (s.mshr[n] || s.readsLeft[n])
            return false;
        for (unsigned d = 0; d < _cfg.nodes; ++d) {
            if (s.chanLen[n][d])
                return false;
        }
    }
    return s.writesLeft == 0 && !s.intervPending;
}

void
ProtocolModel::completeWrite(State &s, unsigned n) const
{
    if (s.mshrV[n] != s.curV) {
        throw McError("lost update: node writes from stale version " +
                      std::to_string(s.mshrV[n]) + " cur " +
                      std::to_string(s.curV));
    }
    for (unsigned m = 0; m < _cfg.nodes; ++m) {
        if (m != n && s.cache[m] != LineState::Invalid)
            throw McError("single-writer violated by cache copy");
        if (m != n && (s.racMask & (1u << m)))
            throw McError("single-writer violated by RAC copy");
    }
    // Our own RAC copy (a superseded push) is now stale: drop it,
    // exactly as the implementation's performStore() does.
    s.racMask &= ~(1u << n);
    ++s.curV;
    s.cache[n] = LineState::Modified;
    s.cacheV[n] = s.curV;
    s.lastSeen[n] = s.curV;
    s.mshr[n] = 0;
    s.mshrHaveData[n] = 0;
    s.mshrAcksNeed[n] = -1;
    s.mshrAcksGot[n] = 0;
    s.fillInval[n] = 0;

    // Delegated producer: arm the delayed intervention (its firing is
    // a separate, nondeterministically-timed transition).
    if (s.prodValid && s.prodNode == n && _cfg.updates)
        s.intervPending = 1;
}

void
ProtocolModel::maybeComplete(State &s, unsigned n) const
{
    if (s.mshr[n] == 1) {
        if (!s.mshrHaveData[n])
            return;
        // Read completion.
        if (s.mshrV[n] < s.lastSeen[n])
            throw McError("non-monotonic read");
        if (s.mshrV[n] > s.curV)
            throw McError("read from the future");
        s.lastSeen[n] = s.mshrV[n];
        if (!s.fillInval[n]) {
            s.cache[n] = LineState::Shared;
            s.cacheV[n] = s.mshrV[n];
        }
        s.mshr[n] = 0;
        s.mshrHaveData[n] = 0;
        s.fillInval[n] = 0;
        return;
    }
    if (s.mshr[n] == 2) {
        if (!s.mshrHaveData[n] || s.mshrAcksNeed[n] < 0)
            return;
        if (s.mshrAcksGot[n] <
            static_cast<std::uint8_t>(s.mshrAcksNeed[n]))
            return;
        completeWrite(s, n);
    }
}

bool
ProtocolModel::undelegate(State &s, unsigned p, std::uint8_t pend_req,
                          std::uint8_t pend_is_write,
                          std::uint8_t pend_seq) const
{
    MMsg und;
    und.type = MsgType::Undele;
    und.version = s.prodV;
    und.requester = pend_req;
    und.acks = pend_is_write;
    und.seq = pend_seq;
    if (s.prodIsExcl) {
        und.owner = static_cast<std::uint8_t>(p);
        und.sharers = 0;
    } else {
        und.owner = none;
        und.sharers =
            static_cast<std::uint8_t>(s.prodSharers | (1u << p));
    }
    if (s.chanLen[p][_cfg.home] >= chanDepth)
        return false; // cannot hand off now: transition disabled
    // A parked request cannot survive the handoff: bounce it with
    // NackNotHome (the implementation's undelegate() queue flush) so
    // the requester re-targets the true home. Both sends must have
    // room before anything mutates.
    if (s.prodParkedType &&
        s.chanLen[p][s.prodParkedReq] >= chanDepth)
        return false;
    s.prodValid = 0;
    s.prodNode = none;
    s.intervPending = 0;
    send(s, p, _cfg.home, und);
    if (s.prodParkedType) {
        MMsg nk;
        nk.type = MsgType::NackNotHome;
        nk.seq = s.prodParkedSeq;
        send(s, p, s.prodParkedReq, nk);
        s.prodParkedType = 0;
        s.prodParkedReq = none;
        s.prodParkedSeq = 0;
    }
    return true;
}

void
ProtocolModel::transitions(const State &s,
                           std::vector<State> &out) const
{
    const unsigned home = _cfg.home;

    // --- CPU ops ----------------------------------------------------
    for (unsigned n = 0; n < _cfg.nodes; ++n) {
        // Read.
        if (s.readsLeft[n] && !s.mshr[n]) {
            const std::size_t rbase = out.size();
            if (s.cache[n] != LineState::Invalid) {
                // Hit.
                State t = s;
                if (t.cacheV[n] < t.lastSeen[n])
                    throw McError("hit read went backwards");
                t.lastSeen[n] = t.cacheV[n];
                --t.readsLeft[n];
                out.push_back(std::move(t));
            } else if (s.racMask & (1u << n)) {
                // Local RAC hit (pushed update copy).
                State t = s;
                if (t.racV[n] < t.lastSeen[n])
                    throw McError("RAC read went backwards");
                t.lastSeen[n] = t.racV[n];
                t.cache[n] = LineState::Shared;
                t.cacheV[n] = t.racV[n];
                t.racMask &= ~(1u << n);
                --t.readsLeft[n];
                out.push_back(std::move(t));
            } else {
                // Miss: issue to the home, or to the delegate if one
                // exists (consumer-table hint, modeled as a choice).
                MMsg req;
                req.type = MsgType::ReqShared;
                req.requester = static_cast<std::uint8_t>(n);
                State t = s;
                t.mshr[n] = 1;
                t.mshrSeq[n] = (t.mshrSeq[n] + 1) & 7;
                req.seq = t.mshrSeq[n];
                --t.readsLeft[n];
                if (s.prodValid && s.prodNode == n) {
                    if (send(t, n, n, req))
                        out.push_back(std::move(t));
                } else {
                    State t2 = t; // copy before send mutates channels
                    if (send(t, n, home, req))
                        out.push_back(std::move(t));
                    if (s.prodValid && s.prodNode != n &&
                        s.prodNode != home) {
                        if (send(t2, n, s.prodNode, req))
                            out.push_back(std::move(t2));
                    }
                }
            }
            if (_listener) {
                for (std::size_t i = rbase; i < out.size(); ++i) {
                    _listener->onTransition(
                        Ctrl::Cache, specState(s.cache[n]),
                        PEvent::CpuLoad, specState(out[i].cache[n]));
                }
            }
        }
        // Write.
        if (s.writesLeft && !s.mshr[n]) {
            const std::size_t wbase = out.size();
            if (s.cache[n] == LineState::Modified) {
                State t = s;
                t.mshrV[n] = t.cacheV[n];
                --t.writesLeft;
                // Store hit: perform directly.
                t.mshrHaveData[n] = 1;
                t.mshr[n] = 2;
                t.mshrAcksNeed[n] = 0;
                completeWrite(t, n);
                out.push_back(std::move(t));
            } else {
                MMsg req;
                req.type = MsgType::ReqExcl;
                req.requester = static_cast<std::uint8_t>(n);
                State t = s;
                t.mshr[n] = 2;
                t.mshrSeq[n] = (t.mshrSeq[n] + 1) & 7;
                req.seq = t.mshrSeq[n];
                t.mshrAcksNeed[n] = -1;
                t.mshrAcksGot[n] = 0;
                t.mshrHaveData[n] = 0;
                --t.writesLeft;
                if (s.prodValid && s.prodNode == n) {
                    // Delegated to us: the producer table serves it.
                    if (send(t, n, n, req))
                        out.push_back(std::move(t));
                } else {
                    State t2 = t;
                    if (send(t, n, home, req))
                        out.push_back(std::move(t));
                    if (s.prodValid && s.prodNode != n &&
                        s.prodNode != home) {
                        if (send(t2, n, s.prodNode, req))
                            out.push_back(std::move(t2));
                    }
                }
            }
            if (_listener) {
                for (std::size_t i = wbase; i < out.size(); ++i) {
                    _listener->onTransition(
                        Ctrl::Cache, specState(s.cache[n]),
                        PEvent::CpuStore, specState(out[i].cache[n]));
                }
            }
        }
    }

    // --- Delayed intervention firing ---------------------------------
    if (s.intervPending && s.prodValid) {
        const std::size_t ibase = out.size();
        State t = s;
        t.intervPending = 0;
        const unsigned p = t.prodNode;
        if (t.prodIsExcl && t.cache[p] == LineState::Modified) {
            t.cache[p] = LineState::Shared;
            t.prodV = t.cacheV[p];
            const std::uint8_t update_set =
                t.prodSharers & ~(1u << p);
            t.prodIsExcl = 0;
            t.prodSharers = update_set | (1u << p);
            bool ok = true;
            if (_cfg.updates) {
                for (unsigned c = 0; c < _cfg.nodes && ok; ++c) {
                    if (!(update_set & (1u << c)))
                        continue;
                    MMsg up;
                    up.type = MsgType::Update;
                    up.version = t.prodV;
                    ok = send(t, p, c, up);
                }
            }
            if (ok)
                out.push_back(std::move(t));
        } else {
            out.push_back(std::move(t));
        }
        if (_listener) {
            const unsigned p = s.prodNode;
            for (std::size_t i = ibase; i < out.size(); ++i) {
                _listener->onTransition(
                    Ctrl::Producer, prodStateOf(s, p),
                    PEvent::DelayedInterv, prodStateOf(out[i], p));
                if (out[i].cache[p] != s.cache[p]) {
                    _listener->onTransition(
                        Ctrl::Cache, specState(s.cache[p]),
                        PEvent::LocalDowngrade,
                        specState(out[i].cache[p]));
                }
            }
        }
    }

    // --- Parked-request drains (homeQueue) ---------------------------
    // Spontaneous re-injection of a parked request once the blocking
    // episode has closed (the implementation drains on episode
    // completion; here the enabling condition stands in for that
    // event). Not reported to the listener: a drain replays a request
    // the spec already covers at its original delivery.
    if (_cfg.homeQueue && s.parkedType && s.dir != DirState::BusyRead &&
        s.dir != DirState::BusyExcl && s.dir != DirState::BusyUpd) {
        State t = s;
        MMsg req;
        req.type = requestOf(t.parkedType);
        req.requester = t.parkedReq;
        req.seq = t.parkedSeq;
        t.parkedType = 0;
        t.parkedReq = 0xf;
        t.parkedSeq = 0;
        applyAtHome(std::move(t), req.requester, req, out);
    }
    if (_cfg.homeQueue && s.prodValid && s.prodParkedType &&
        !s.mshr[s.prodNode] &&
        !(s.prodParkedType == 1 && s.prodIsExcl && _cfg.updates &&
          s.intervPending)) {
        State t = s;
        MMsg req;
        req.type = requestOf(t.prodParkedType);
        req.requester = t.prodParkedReq;
        req.seq = t.prodParkedSeq;
        t.prodParkedType = 0;
        t.prodParkedReq = 0xf;
        t.prodParkedSeq = 0;
        applyAtNode(std::move(t), s.prodNode, req.requester, req,
                    out);
    }

    // --- Message deliveries ------------------------------------------
    for (unsigned src = 0; src < _cfg.nodes; ++src) {
        for (unsigned dst = 0; dst < _cfg.nodes; ++dst) {
            if (s.chanLen[src][dst]) {
                State copy = s;
                deliver(copy, src, dst, out);
            }
        }
    }
}

void
ProtocolModel::deliver(State &t, unsigned src, unsigned dst,
                       std::vector<State> &out) const
{
    // Pop the head (FIFO per pair).
    MMsg m = t.chan[src][dst][0];
    for (unsigned i = 1; i < t.chanLen[src][dst]; ++i)
        t.chan[src][dst][i - 1] = t.chan[src][dst][i];
    --t.chanLen[src][dst];
    t.chan[src][dst][t.chanLen[src][dst]] = MMsg{};

    const bool for_home_side =
        m.type == MsgType::ReqShared || m.type == MsgType::ReqExcl ||
        m.type == MsgType::SharedWriteback || m.type == MsgType::TransferAck ||
        m.type == MsgType::IntervNack || m.type == MsgType::Undele ||
        m.type == MsgType::UpdateWB || m.type == MsgType::UpdateDrop;

    // Which controller handles this delivery: the home directory, a
    // producer table acting as the home, a plain cache, or a
    // stale-hint bounce that touches no FSM at all.
    enum class Side { Home, Producer, Cache, Bounce };
    Side side;
    if (for_home_side) {
        if ((m.type == MsgType::ReqShared || m.type == MsgType::ReqExcl) &&
            t.prodValid && t.prodNode == dst) {
            side = Side::Producer;
        } else if (dst == _cfg.home) {
            side = Side::Home;
        } else {
            side = Side::Bounce;
        }
    } else {
        side = m.type == MsgType::Delegate ? Side::Producer
                                         : Side::Cache;
    }

    // Snapshot pre-states before dispatch (t is moved below).
    const std::size_t base = out.size();
    const StateId preCache = specState(t.cache[dst]);
    const StateId preDir = specState(t.dir);
    const StateId preProd = prodStateOf(t, dst);
    const PEvent event = verify::eventOf(m.type);

    switch (side) {
      case Side::Producer:
      case Side::Cache:
        applyAtNode(std::move(t), dst, src, m, out);
        break;
      case Side::Home:
        applyAtHome(std::move(t), src, m, out);
        break;
      case Side::Bounce: {
        // Stale hint: not the home, no producer entry.
        MMsg nack;
        nack.type = MsgType::NackNotHome;
        nack.seq = m.seq;
        if (send(t, dst, m.requester, nack))
            out.push_back(std::move(t));
        break;
      }
    }

    if (!_listener)
        return;
    for (std::size_t i = base; i < out.size(); ++i) {
        const State &u = out[i];
        switch (side) {
          case Side::Home:
            _listener->onTransition(Ctrl::Dir, preDir, event,
                                    specState(u.dir));
            break;
          case Side::Producer:
            _listener->onTransition(Ctrl::Producer, preProd, event,
                                    prodStateOf(u, dst));
            // On-demand downgrade of the producer's own copy.
            if (specState(u.cache[dst]) != preCache) {
                _listener->onTransition(Ctrl::Cache, preCache,
                                        PEvent::LocalDowngrade,
                                        specState(u.cache[dst]));
            }
            break;
          case Side::Cache:
            _listener->onTransition(Ctrl::Cache, preCache, event,
                                    specState(u.cache[dst]));
            break;
          case Side::Bounce:
            break;
        }
    }
}

void
ProtocolModel::applyAtHome(State t, unsigned src, const MMsg &m,
                           std::vector<State> &out) const
{
    const unsigned home = _cfg.home;
    const unsigned r = m.requester;

    auto nack = [&](State &st, unsigned to) {
        MMsg n;
        n.type = MsgType::Nack;
        n.seq = m.seq;
        return send(st, home, to, n);
    };
    // Busy-state arbitration: under homeQueue a request parks in the
    // free slot instead of NACKing; an occupied slot (queue overflow)
    // falls back to the NACK, like the implementation's depth cap.
    auto nackOrPark = [&](State &st, unsigned to, bool is_write) {
        if (_cfg.homeQueue && st.parkedType == 0) {
            st.parkedType = is_write ? 2 : 1;
            st.parkedReq = static_cast<std::uint8_t>(to);
            st.parkedSeq = m.seq;
            return true;
        }
        return nack(st, to);
    };

    switch (m.type) {
      case MsgType::ReqShared: {
        switch (t.dir) {
          case DirState::Unowned:
          case DirState::Shared: {
            t.dir = DirState::Shared;
            t.sharers |= (1u << r);
            MMsg resp;
            resp.type = MsgType::RespSharedData;
            resp.version = t.memV;
            resp.seq = m.seq;
            if (send(t, home, r, resp))
                out.push_back(std::move(t));
            break;
          }
          case DirState::Excl: {
            if (t.owner == r) {
                if (nack(t, r))
                    out.push_back(std::move(t));
                break;
            }
            t.pendReq = static_cast<std::uint8_t>(r);
            t.pendOwner = t.owner;
            t.pendIsWrite = 0;
            t.pendSeq = m.seq;
            t.dir = DirState::BusyRead;
            MMsg iv;
            iv.type = MsgType::IntervDowngrade;
            iv.requester = static_cast<std::uint8_t>(r);
            iv.seq = m.seq;
            if (send(t, home, t.pendOwner, iv))
                out.push_back(std::move(t));
            break;
          }
          case DirState::BusyRead:
          case DirState::BusyExcl:
          case DirState::BusyUpd:
            if (nackOrPark(t, r, /*is_write=*/false))
                out.push_back(std::move(t));
            break;
          case DirState::Dele: {
            if (r == t.owner) {
                if (nack(t, r))
                    out.push_back(std::move(t));
                break;
            }
            MMsg fwd = m;
            if (send(t, home, t.owner, fwd))
                out.push_back(std::move(t));
            break;
          }
        }
        break;
      }

      case MsgType::ReqExcl: {
        // Write-update: the home opens an update episode instead of
        // granting ownership -- the directory only ever visits U, S
        // and BusyUpd under this policy.
        if (_cfg.writeUpdate) {
            switch (t.dir) {
              case DirState::Unowned:
              case DirState::Shared: {
                t.dir = DirState::BusyUpd;
                t.pendReq = static_cast<std::uint8_t>(r);
                t.pendSeq = m.seq;
                MMsg grant;
                grant.type = MsgType::UpdGrant;
                grant.version = t.memV;
                grant.seq = m.seq;
                if (send(t, home, r, grant))
                    out.push_back(std::move(t));
                break;
              }
              case DirState::BusyUpd:
                if (nackOrPark(t, r, /*is_write=*/true))
                    out.push_back(std::move(t));
                break;
              default:
                throw McError(
                    "write-update directory outside Unowned/Shared/BusyUpd");
            }
            break;
        }
        // Nondeterministic delegation decision (over-approximates the
        // detector): branch both ways when permitted.
        if (_cfg.delegation &&
            (t.dir == DirState::Unowned || t.dir == DirState::Shared)) {
            State d = t;
            d.dir = DirState::Dele;
            d.owner = static_cast<std::uint8_t>(r);
            MMsg del;
            del.type = MsgType::Delegate;
            del.version = d.memV;
            del.sharers = d.sharers;
            del.seq = m.seq;
            const std::uint8_t shr = d.sharers;
            d.sharers = 0;
            (void)shr;
            if (send(d, home, r, del))
                out.push_back(std::move(d));
        }
        switch (t.dir) {
          case DirState::Unowned: {
            t.dir = DirState::Excl;
            t.owner = static_cast<std::uint8_t>(r);
            t.sharers = 0;
            MMsg resp;
            resp.type = MsgType::RespExclData;
            resp.version = t.memV;
            resp.acks = 0;
            resp.seq = m.seq;
            if (send(t, home, r, resp))
                out.push_back(std::move(t));
            break;
          }
          case DirState::Shared: {
            const std::uint8_t targets = t.sharers & ~(1u << r);
            bool ok = true;
            for (unsigned c = 0; c < _cfg.nodes && ok; ++c) {
                if (!(targets & (1u << c)))
                    continue;
                MMsg iv;
                iv.type = MsgType::Inval;
                iv.requester = static_cast<std::uint8_t>(r);
                iv.version = t.memV;
                iv.seq = m.seq;
                ok = send(t, home, c, iv);
            }
            if (!ok)
                break;
            t.dir = DirState::Excl;
            t.owner = static_cast<std::uint8_t>(r);
            t.sharers = 0;
            MMsg resp;
            resp.type = MsgType::RespExclData;
            resp.version = t.memV;
            resp.acks = popcount(targets);
            resp.seq = m.seq;
            if (send(t, home, r, resp))
                out.push_back(std::move(t));
            break;
          }
          case DirState::Excl: {
            if (t.owner == r) {
                if (nack(t, r))
                    out.push_back(std::move(t));
                break;
            }
            t.pendReq = static_cast<std::uint8_t>(r);
            t.pendOwner = t.owner;
            t.pendIsWrite = 1;
            t.pendSeq = m.seq;
            t.dir = DirState::BusyExcl;
            MMsg iv;
            iv.type = MsgType::IntervTransfer;
            iv.requester = static_cast<std::uint8_t>(r);
            iv.seq = m.seq;
            if (send(t, home, t.pendOwner, iv))
                out.push_back(std::move(t));
            break;
          }
          case DirState::BusyRead:
          case DirState::BusyExcl:
          case DirState::BusyUpd:
            if (nackOrPark(t, r, /*is_write=*/true))
                out.push_back(std::move(t));
            break;
          case DirState::Dele: {
            if (r == t.owner) {
                if (nack(t, r))
                    out.push_back(std::move(t));
                break;
            }
            MMsg fwd = m;
            if (send(t, home, t.owner, fwd))
                out.push_back(std::move(t));
            break;
          }
        }
        break;
      }

      case MsgType::UpdateWB: {
        if (t.dir != DirState::BusyUpd || t.pendReq != m.requester)
            throw McError("UpdateWB outside an open BusyUpd episode");
        if (_cfg.defectStallUpdateWB) {
            // Seeded liveness defect: swallow the writeback without
            // closing the episode; the directory stays BusyUpd and
            // NACKs every later request forever.
            out.push_back(std::move(t));
            break;
        }
        t.memV = m.version;
        // Refresh every other sharer in place, then list the writer.
        const std::uint8_t targets = t.sharers & ~(1u << m.requester);
        bool ok = true;
        for (unsigned c = 0; c < _cfg.nodes && ok; ++c) {
            if (!(targets & (1u << c)))
                continue;
            MMsg up;
            up.type = MsgType::Update;
            up.version = t.memV;
            ok = send(t, home, c, up);
        }
        if (!ok)
            break;
        t.sharers |= (1u << m.requester);
        t.dir = DirState::Shared;
        t.pendReq = none;
        out.push_back(std::move(t));
        break;
      }

      case MsgType::UpdateDrop: {
        // A consumer left the update stream; pure unsubscription (the
        // model's sharer vector is exact, so always drop the bit).
        t.sharers &= ~(1u << m.requester);
        out.push_back(std::move(t));
        break;
      }

      case MsgType::SharedWriteback: {
        if (t.dir != DirState::BusyRead)
            throw McError("SharedWriteback outside BusyRead");
        t.memV = m.version;
        t.dir = DirState::Shared;
        t.sharers = static_cast<std::uint8_t>((1u << t.pendOwner) |
                                              (1u << t.pendReq));
        t.owner = none;
        t.pendReq = none;
        t.pendOwner = none;
        out.push_back(std::move(t));
        break;
      }

      case MsgType::TransferAck: {
        if (t.dir != DirState::BusyExcl)
            throw McError("TransferAck outside BusyExcl");
        t.dir = DirState::Excl;
        t.owner = t.pendReq;
        t.sharers = 0;
        t.pendReq = none;
        t.pendOwner = none;
        out.push_back(std::move(t));
        break;
      }

      case MsgType::IntervNack: {
        if ((t.dir == DirState::BusyRead || t.dir == DirState::BusyExcl) &&
            t.pendOwner == src) {
            const std::uint8_t req = t.pendReq;
            MMsg nk;
            nk.type = MsgType::Nack;
            nk.seq = t.pendSeq;
            t.dir = DirState::Excl;
            t.owner = t.pendOwner;
            t.sharers = 0;
            t.pendReq = none;
            t.pendOwner = none;
            if (send(t, home, req, nk))
                out.push_back(std::move(t));
        } else {
            out.push_back(std::move(t)); // stale: drop
        }
        break;
      }

      case MsgType::Undele: {
        if (t.dir != DirState::Dele || t.owner != src)
            throw McError("Undele in wrong state");
        t.memV = m.version;
        if (m.owner != none) {
            t.dir = DirState::Excl;
            t.owner = m.owner;
            t.sharers = 0;
        } else if (m.sharers) {
            t.dir = DirState::Shared;
            t.sharers = m.sharers;
            t.owner = none;
        } else {
            t.dir = DirState::Unowned;
            t.owner = none;
            t.sharers = 0;
        }
        if (m.requester != none) {
            // Re-handle the pending request that forced this.
            MMsg req;
            req.type = m.acks ? MsgType::ReqExcl : MsgType::ReqShared;
            req.requester = m.requester;
            req.seq = m.seq;
            if (!send(t, home, home, req))
                break;
        }
        out.push_back(std::move(t));
        break;
      }

      default:
        throw McError("unexpected message at home");
    }
}

void
ProtocolModel::applyAtNode(State t, unsigned dst,
                           unsigned /* src: senders identify
                                      themselves via m.requester */,
                           const MMsg &m,
                           std::vector<State> &out) const
{
    const unsigned home = _cfg.home;
    const unsigned n = dst;

    switch (m.type) {
      case MsgType::ReqShared:
      case MsgType::ReqExcl: {
        // Producer-table service (delegated home).
        if (!t.prodValid || t.prodNode != n)
            throw McError("request at node without producer entry");
        const unsigned r = m.requester;
        // Busy-producer arbitration mirrors the home's: one remote
        // request parks in the producer's slot, a second NACKs.
        auto prodNackOrPark = [&](State &st) {
            if (_cfg.homeQueue && st.prodParkedType == 0) {
                st.prodParkedType = m.type == MsgType::ReqShared ? 1 : 2;
                st.prodParkedReq = static_cast<std::uint8_t>(r);
                st.prodParkedSeq = m.seq;
                return true;
            }
            MMsg nk;
            nk.type = MsgType::Nack;
            nk.seq = m.seq;
            return send(st, n, r, nk);
        };
        if (r != n && t.mshr[n]) {
            if (prodNackOrPark(t))
                out.push_back(std::move(t));
            break;
        }
        if (m.type == MsgType::ReqShared) {
            if (t.prodIsExcl) {
                if (_cfg.updates && t.intervPending) {
                    if (prodNackOrPark(t))
                        out.push_back(std::move(t));
                    break;
                }
                // On-demand downgrade.
                if (t.cache[n] == LineState::Modified) {
                    t.cache[n] = LineState::Shared;
                    t.prodV = t.cacheV[n];
                }
                t.prodIsExcl = 0;
                t.prodSharers |= (1u << n);
            }
            t.prodSharers |= (1u << r);
            MMsg resp;
            resp.type = MsgType::RespSharedData;
            resp.version = t.prodV;
            resp.seq = m.seq;
            if (send(t, n, r, resp))
                out.push_back(std::move(t));
            break;
        }
        // ReqExcl.
        if (r == n) {
            // Local write through the producer entry.
            if (t.prodIsExcl)
                throw McError("local write while producer EXCL");
            const std::uint8_t targets = t.prodSharers & ~(1u << n);
            bool ok = true;
            for (unsigned c = 0; c < _cfg.nodes && ok; ++c) {
                if (!(targets & (1u << c)))
                    continue;
                MMsg iv;
                iv.type = MsgType::Inval;
                iv.requester = static_cast<std::uint8_t>(n);
                iv.version = t.prodV;
                iv.seq = m.seq;
                ok = send(t, n, c, iv);
            }
            if (!ok)
                break;
            t.prodIsExcl = 1;
            MMsg grant;
            grant.type = MsgType::RespExclData;
            grant.version = t.prodV;
            grant.acks = popcount(targets);
            grant.seq = m.seq;
            if (send(t, n, n, grant))
                out.push_back(std::move(t));
        } else {
            // Undelegation reason 3.
            if (undelegate(t, n, static_cast<std::uint8_t>(r),
                           /*pend_is_write=*/1, m.seq)) {
                out.push_back(std::move(t));
            }
        }
        break;
      }

      case MsgType::Inval: {
        t.tombV[n] = std::max(t.tombV[n], m.version);
        t.cache[n] = LineState::Invalid;
        t.racMask &= ~(1u << n);
        if (t.mshr[n] == 1)
            t.fillInval[n] = 1;
        MMsg ack;
        ack.type = MsgType::InvalAck;
        ack.seq = m.seq;
        if (send(t, n, m.requester, ack))
            out.push_back(std::move(t));
        break;
      }

      case MsgType::IntervDowngrade: {
        if (t.mshr[n] == 2 || t.cache[n] == LineState::Invalid) {
            MMsg nk;
            nk.type = MsgType::IntervNack;
            if (send(t, n, home, nk))
                out.push_back(std::move(t));
            break;
        }
        t.cache[n] = LineState::Shared;
        MMsg data;
        data.type = MsgType::SharedResp;
        data.version = t.cacheV[n];
        data.seq = m.seq;
        MMsg wb;
        wb.type = MsgType::SharedWriteback;
        wb.version = t.cacheV[n];
        if (send(t, n, m.requester, data) && send(t, n, home, wb))
            out.push_back(std::move(t));
        break;
      }

      case MsgType::IntervTransfer: {
        if (t.mshr[n] == 2 || t.cache[n] == LineState::Invalid) {
            MMsg nk;
            nk.type = MsgType::IntervNack;
            if (send(t, n, home, nk))
                out.push_back(std::move(t));
            break;
        }
        const std::uint8_t v = t.cacheV[n];
        t.cache[n] = LineState::Invalid;
        t.racMask &= ~(1u << n);
        MMsg data;
        data.type = MsgType::ExclResp;
        data.version = v;
        data.seq = m.seq;
        MMsg ack;
        ack.type = MsgType::TransferAck;
        if (send(t, n, m.requester, data) && send(t, n, home, ack))
            out.push_back(std::move(t));
        break;
      }

      case MsgType::RespSharedData:
      case MsgType::SharedResp: {
        if (t.mshr[n] != 1 || m.seq != t.mshrSeq[n]) {
            out.push_back(std::move(t)); // stale: drop
            break;
        }
        t.mshrHaveData[n] = 1;
        t.mshrV[n] = m.version;
        maybeComplete(t, n);
        out.push_back(std::move(t));
        break;
      }

      case MsgType::RespExclData:
      case MsgType::ExclResp: {
        if (t.mshr[n] != 2 || m.seq != t.mshrSeq[n]) {
            out.push_back(std::move(t));
            break;
        }
        t.mshrHaveData[n] = 1;
        t.mshrV[n] = m.version;
        t.mshrAcksNeed[n] =
            m.type == MsgType::RespExclData ? static_cast<std::int8_t>(m.acks)
                                   : 0;
        maybeComplete(t, n);
        out.push_back(std::move(t));
        break;
      }

      case MsgType::InvalAck: {
        if (t.mshr[n] == 2 && m.seq == t.mshrSeq[n]) {
            ++t.mshrAcksGot[n];
            maybeComplete(t, n);
        }
        out.push_back(std::move(t));
        break;
      }

      case MsgType::Nack: {
        if (!t.mshr[n] || m.seq != t.mshrSeq[n]) {
            out.push_back(std::move(t));
            break;
        }
        // Retry: the RAC may have been filled by a push meanwhile.
        if (t.mshr[n] == 1 && (t.racMask & (1u << n))) {
            t.mshrHaveData[n] = 1;
            t.mshrV[n] = t.racV[n];
            t.fillInval[n] = 0;
            t.racMask &= ~(1u << n);
            maybeComplete(t, n);
            out.push_back(std::move(t));
            break;
        }
        MMsg req;
        req.type = requestOf(t.mshr[n]);
        req.requester = static_cast<std::uint8_t>(n);
        req.seq = t.mshrSeq[n]; // same transaction, same tag
        if (t.prodValid && t.prodNode == n) {
            if (send(t, n, n, req))
                out.push_back(std::move(t));
            break;
        }
        State t2 = t;
        if (send(t, n, home, req))
            out.push_back(std::move(t));
        if (t2.prodValid && t2.prodNode != n && t2.prodNode != home) {
            const unsigned p = t2.prodNode;
            if (send(t2, n, p, req))
                out.push_back(std::move(t2));
        }
        break;
      }

      case MsgType::NackNotHome: {
        if (!t.mshr[n] || m.seq != t.mshrSeq[n]) {
            out.push_back(std::move(t));
            break;
        }
        MMsg req;
        req.type = requestOf(t.mshr[n]);
        req.requester = static_cast<std::uint8_t>(n);
        req.seq = t.mshrSeq[n];
        if (send(t, n, home, req))
            out.push_back(std::move(t));
        break;
      }

      case MsgType::Delegate: {
        t.prodValid = 1;
        t.prodNode = static_cast<std::uint8_t>(n);
        t.prodIsExcl = 0;
        t.prodSharers = m.sharers;
        t.prodV = m.version;
        if (t.mshr[n] == 2) {
            // Serve the pending local write as the acting home.
            const std::uint8_t targets = t.prodSharers & ~(1u << n);
            bool ok = true;
            for (unsigned c = 0; c < _cfg.nodes && ok; ++c) {
                if (!(targets & (1u << c)))
                    continue;
                MMsg iv;
                iv.type = MsgType::Inval;
                iv.requester = static_cast<std::uint8_t>(n);
                iv.version = t.prodV;
                iv.seq = m.seq;
                ok = send(t, n, c, iv);
            }
            if (!ok)
                break;
            t.prodIsExcl = 1;
            MMsg grant;
            grant.type = MsgType::RespExclData;
            grant.version = t.prodV;
            grant.acks = popcount(targets);
            grant.seq = m.seq;
            if (send(t, n, n, grant))
                out.push_back(std::move(t));
        } else {
            out.push_back(std::move(t));
        }
        break;
      }

      case MsgType::UpdGrant: {
        if (t.mshr[n] != 2 || m.seq != t.mshrSeq[n]) {
            out.push_back(std::move(t)); // stale: drop
            break;
        }
        // Perform the store inline and self-downgrade to SHARED; the
        // new data returns to the home within the same handler. The
        // grant carries the committed memory version, which BusyUpd
        // serialization keeps equal to the oracle's current version.
        if (m.version != t.curV) {
            throw McError(
                "lost update: grant carries stale version " +
                std::to_string(m.version) + " cur " +
                std::to_string(t.curV));
        }
        ++t.curV;
        t.cache[n] = LineState::Shared;
        t.cacheV[n] = t.curV;
        t.lastSeen[n] = t.curV;
        t.mshr[n] = 0;
        t.mshrHaveData[n] = 0;
        t.mshrAcksNeed[n] = -1;
        t.mshrAcksGot[n] = 0;
        MMsg wb;
        wb.type = MsgType::UpdateWB;
        wb.requester = static_cast<std::uint8_t>(n);
        wb.version = t.curV;
        if (send(t, n, home, wb))
            out.push_back(std::move(t));
        break;
      }

      case MsgType::Update: {
        if (_cfg.writeUpdate) {
            if (t.cache[n] != LineState::Invalid) {
                if (_cfg.adaptive) {
                    // Nondeterministic self-invalidation: leave the
                    // update stream (over-approximates the stale-
                    // update counter reaching its threshold).
                    State d = t;
                    d.cache[n] = LineState::Invalid;
                    MMsg drop;
                    drop.type = MsgType::UpdateDrop;
                    drop.requester = static_cast<std::uint8_t>(n);
                    if (send(d, n, home, drop))
                        out.push_back(std::move(d));
                }
                // Refresh the SHARED copy in place.
                if (m.version > t.cacheV[n])
                    t.cacheV[n] = m.version;
                out.push_back(std::move(t));
                break;
            }
            if (t.mshr[n] == 1) {
                // A push doubles as the read-miss response.
                t.mshrHaveData[n] = 1;
                t.mshrV[n] = m.version;
                maybeComplete(t, n);
                out.push_back(std::move(t));
                break;
            }
            // Dropped / never-held copy: ignore the push.
            out.push_back(std::move(t));
            break;
        }
        if (m.version <= t.tombV[n]) {
            out.push_back(std::move(t)); // stale push: drop
            break;
        }
        if (t.mshr[n] == 1) {
            t.mshrHaveData[n] = 1;
            t.mshrV[n] = m.version;
            t.fillInval[n] = 0;
            maybeComplete(t, n);
            out.push_back(std::move(t));
            break;
        }
        if (t.mshr[n] == 2 || t.cache[n] != LineState::Invalid) {
            out.push_back(std::move(t));
            break;
        }
        t.racMask |= (1u << n);
        t.racV[n] = m.version;
        out.push_back(std::move(t));
        break;
      }

      default:
        throw McError("unexpected message at node");
    }
}

void
ProtocolModel::checkInvariants(const State &s) const
{
    unsigned owners = 0;
    for (unsigned n = 0; n < _cfg.nodes; ++n) {
        if (s.cache[n] == LineState::Modified) {
            ++owners;
            if (s.cacheV[n] != s.curV)
                throw McError("M copy is not the current version");
            for (unsigned m = 0; m < _cfg.nodes; ++m) {
                if (m != n && s.cache[m] != LineState::Invalid)
                    throw McError("M coexists with another copy");
            }
            if (s.racMask)
                throw McError("M coexists with a RAC copy");
        }
        if (s.cache[n] == LineState::Shared && s.cacheV[n] != s.curV) {
            // Write-update sharers are refreshed asynchronously: a
            // stale copy is legal while the episode is still open
            // (BusyUpd) or while its refresh is still in flight.
            bool excused = false;
            if (_cfg.writeUpdate) {
                if (s.dir == DirState::BusyUpd)
                    excused = true;
                for (unsigned i = 0;
                     !excused && i < s.chanLen[_cfg.home][n]; ++i) {
                    const MMsg &m = s.chan[_cfg.home][n][i];
                    if (m.type == MsgType::Update &&
                        m.version > s.cacheV[n])
                        excused = true;
                }
            }
            if (!excused)
                throw McError("stale SHARED copy");
        }
        if ((s.racMask & (1u << n)) && s.racV[n] != s.curV)
            throw McError("stale RAC copy");
    }
    if (owners > 1)
        throw McError("multiple writers");

    // Directory consistency (outside transients, which are covered by
    // the Busy/Dele states).
    if (s.dir == DirState::Unowned && !s.prodValid) {
        for (unsigned n = 0; n < _cfg.nodes; ++n) {
            if (s.cache[n] != LineState::Invalid)
                throw McError("holder under Unowned directory");
        }
    }
    if (s.dir == DirState::Dele) {
        if (!s.prodValid) {
            // Legal transiently (Delegate or Undele in flight);
            // illegal when no such message exists.
            bool in_flight = false;
            for (unsigned a = 0; a < _cfg.nodes; ++a) {
                for (unsigned b = 0; b < _cfg.nodes; ++b) {
                    for (unsigned i = 0; i < s.chanLen[a][b]; ++i) {
                        const MsgType ty = s.chan[a][b][i].type;
                        if (ty == MsgType::Delegate ||
                            ty == MsgType::Undele)
                            in_flight = true;
                    }
                }
            }
            if (!in_flight)
                throw McError("Dele with no delegate and no handoff "
                              "in flight");
        }
    }

    // Channel sanity.
    for (unsigned a = 0; a < _cfg.nodes; ++a) {
        for (unsigned b = 0; b < _cfg.nodes; ++b) {
            if (s.chanLen[a][b] > chanDepth)
                throw McError("channel overflow");
        }
    }
}

std::string
ProtocolModel::describe(const State &s) const
{
    std::ostringstream os;
    os << "dir=" << dirStateName(s.dir)
       << " sharers=" << int(s.sharers) << " owner=" << int(s.owner)
       << " memV=" << int(s.memV) << " curV=" << int(s.curV)
       << " writesLeft=" << int(s.writesLeft) << "\n";
    for (unsigned n = 0; n < _cfg.nodes; ++n) {
        os << "  node" << n << ": cache=" << lineStateName(s.cache[n])
           << " v=" << int(s.cacheV[n]) << " mshr=" << int(s.mshr[n])
           << " readsLeft=" << int(s.readsLeft[n]) << "\n";
    }
    os << "  prod: valid=" << int(s.prodValid) << " node="
       << int(s.prodNode) << " excl=" << int(s.prodIsExcl)
       << " sharers=" << int(s.prodSharers) << "\n";
    if (_cfg.homeQueue) {
        os << "  parked: home=" << int(s.parkedType) << "/req"
           << int(s.parkedReq) << "/seq" << int(s.parkedSeq)
           << " prod=" << int(s.prodParkedType) << "/req"
           << int(s.prodParkedReq) << "/seq" << int(s.prodParkedSeq)
           << "\n";
    }
    os << "  racMask=" << int(s.racMask) << " racV=[";
    for (unsigned n = 0; n < _cfg.nodes; ++n)
        os << int(s.racV[n]) << (n + 1 < _cfg.nodes ? "," : "");
    os << "] tombV=[";
    for (unsigned n = 0; n < _cfg.nodes; ++n)
        os << int(s.tombV[n]) << (n + 1 < _cfg.nodes ? "," : "");
    os << "]\n";
    for (unsigned a = 0; a < _cfg.nodes; ++a) {
        for (unsigned b = 0; b < _cfg.nodes; ++b) {
            for (unsigned i = 0; i < s.chanLen[a][b]; ++i) {
                const MMsg &m = s.chan[a][b][i];
                os << "  msg " << a << "->" << b << " type="
                   << msgTypeName(m.type)
                   << " req=" << int(m.requester) << " v="
                   << int(m.version) << " acks=" << int(m.acks)
                   << " seq=" << int(m.seq) << "\n";
            }
        }
    }
    os << "  lastSeen=[";
    for (unsigned n = 0; n < _cfg.nodes; ++n)
        os << int(s.lastSeen[n]) << (n + 1 < _cfg.nodes ? "," : "");
    os << "] fillInval=[";
    for (unsigned n = 0; n < _cfg.nodes; ++n)
        os << int(s.fillInval[n]) << (n + 1 < _cfg.nodes ? "," : "");
    os << "] mshrSeq=[";
    for (unsigned n = 0; n < _cfg.nodes; ++n)
        os << int(s.mshrSeq[n]) << (n + 1 < _cfg.nodes ? "," : "");
    os << "] intervPending=" << int(s.intervPending);
    return os.str();
}

std::string
ProtocolModel::blockedSummary(const State &s) const
{
    std::ostringstream os;
    os << "pending ops:";
    bool any = false;
    for (unsigned n = 0; n < _cfg.nodes; ++n) {
        if (!s.mshr[n])
            continue;
        any = true;
        os << " node" << n
           << (s.mshr[n] == 1 ? " read" : " write") << "(seq "
           << int(s.mshrSeq[n]);
        if (s.mshr[n] == 2 && s.mshrAcksNeed[n] >= 0) {
            os << ", acks " << int(s.mshrAcksGot[n]) << "/"
               << int(s.mshrAcksNeed[n]);
        }
        os << ")";
    }
    if (!any)
        os << " none";
    if (s.parkedType) {
        os << "; parked@home: "
           << (s.parkedType == 1 ? "read" : "write") << " req"
           << int(s.parkedReq) << " seq" << int(s.parkedSeq);
    }
    if (s.prodParkedType) {
        os << "; parked@prod: "
           << (s.prodParkedType == 1 ? "read" : "write") << " req"
           << int(s.prodParkedReq) << " seq"
           << int(s.prodParkedSeq);
    }
    os << "; budgets: writesLeft=" << int(s.writesLeft)
       << " readsLeft=[";
    for (unsigned n = 0; n < _cfg.nodes; ++n)
        os << int(s.readsLeft[n]) << (n + 1 < _cfg.nodes ? "," : "");
    os << "]\nchannel occupancy:";
    any = false;
    for (unsigned a = 0; a < _cfg.nodes; ++a) {
        for (unsigned b = 0; b < _cfg.nodes; ++b) {
            if (!s.chanLen[a][b])
                continue;
            any = true;
            os << "\n  " << a << "->" << b << ": "
               << int(s.chanLen[a][b]) << "/" << chanDepth << " [";
            for (unsigned i = 0; i < s.chanLen[a][b]; ++i) {
                os << msgTypeName(s.chan[a][b][i].type)
                   << (i + 1 < s.chanLen[a][b] ? ", " : "");
            }
            os << "]";
        }
    }
    if (!any)
        os << " all channels empty";
    return os.str();
}

} // namespace mc
} // namespace pcsim
