#include "src/protocol/policy.hh"

#include <map>
#include <utility>

#include "src/cache/line_state.hh"
#include "src/protocol/cache_controller.hh"
#include "src/protocol/dir_controller.hh"
#include "src/protocol/hub.hh"
#include "src/sim/file_io.hh"
#include "src/sim/logging.hh"
#include "src/verify/lint.hh"
#include "src/verify/liveness.hh"
#include "src/verify/mdg.hh"
#include "src/verify/spec.hh"

namespace pcsim
{

void
CoherencePolicy::handleUpdateWB(DirController &dir, const Message &msg,
                                DirCacheEntry &, Tick) const
{
    panic("node %u: UpdateWB under %s (invalidate-based policies "
          "never grant update episodes): %s",
          dir.hub().id(), name(), msg.toString().c_str());
}

void
CoherencePolicy::handleUpdateDrop(DirController &dir, const Message &msg,
                                  DirCacheEntry &, Tick) const
{
    panic("node %u: UpdateDrop under %s (only the adaptive hybrid "
          "leaves the update stream): %s",
          dir.hub().id(), name(), msg.toString().c_str());
}

namespace
{

// --- MESI-dir + delegation + speculative updates --------------------
//
// The original protocol stack, hosting the home-side FSM that used to
// live inside DirController. One class serves the three invalidate
// kinds: the delegation trigger below is the only point that differs,
// and it keys off the config.

class MesiDelePolicy : public CoherencePolicy
{
  public:
    explicit MesiDelePolicy(ProtocolKind kind) : _kind(kind) {}

    ProtocolKind kind() const override { return _kind; }

    const verify::TransitionSpec &
    spec() const override
    {
        return verify::protocolSpec();
    }

    void
    handleRead(DirController &dir, const Message &msg, DirCacheEntry &e,
               Tick ready) const override
    {
        Hub &hub = dir.hub();
        const NodeId req = msg.requester;
        DirEntry &d = e.dir;

        if (d.state != DirState::Dele)
            e.detector.onRead(req, hub.cfg().detector);

        switch (d.state) {
          case DirState::Unowned:
          case DirState::Shared: {
            d.state = DirState::Shared;
            d.addSharer(req);
            Message resp;
            resp.type = MsgType::RespSharedData;
            resp.addr = msg.addr;
            resp.dst = req;
            resp.version = d.memVersion;
            resp.txnId = msg.txnId;
            hub.sendAt(dir.withMemData(ready), resp);
            break;
          }

          case DirState::Excl: {
            if (d.owner == req) {
                // Transient: our view and the owner's disagree (should
                // be prevented by point-to-point ordering); retry.
                hub.sendNack(MsgType::Nack, msg.addr, req, msg.txnId, ready);
                break;
            }
            d.pendingReq = req;
            d.pendingType = MsgType::ReqShared;
            d.pendingOwner = d.owner;
            d.pendingTxnId = msg.txnId;
            d.state = DirState::BusyRead;
            ++hub.stats().interventionsSent;
            Message iv;
            iv.type = MsgType::IntervDowngrade;
            iv.addr = msg.addr;
            iv.dst = d.pendingOwner;
            iv.requester = req;
            iv.txnId = msg.txnId;
            hub.sendAt(ready, iv);
            break;
          }

          case DirState::BusyRead:
          case DirState::BusyExcl:
            dir.nackOrQueue(msg, ready);
            break;

          case DirState::Dele:
            dir.forwardToDelegate(msg, e, ready);
            break;

          default:
            panic("node %u: read in dir state %s under %s", hub.id(),
                  dirStateName(d.state), name());
        }
    }

    void
    handleWrite(DirController &dir, const Message &msg, DirCacheEntry &e,
                Tick ready) const override
    {
        Hub &hub = dir.hub();
        const ProtocolConfig &cfg = hub.cfg();
        const NodeId req = msg.requester;
        DirEntry &d = e.dir;

        bool detected = false;
        if (d.state != DirState::Dele)
            detected = e.detector.onWrite(req, cfg.detector);

        // Delegation trigger (Section 2.3.1): a stable producer
        // writing a line whose data is at the home. When the producer
        // IS the home (common under first-touch placement) the entry
        // is self-delegated: requests were already 2-hop, but the
        // delayed intervention + speculative update machinery still
        // converts the consumers' 2-hop misses into local misses.
        if (cfg.delegationEnabled() && detected &&
            e.detector.producer() == req &&
            (d.state == DirState::Shared ||
             d.state == DirState::Unowned)) {
            dir.delegate(msg.addr, req, e, ready, msg.txnId);
            return;
        }

        switch (d.state) {
          case DirState::Unowned: {
            d.state = DirState::Excl;
            d.owner = req;
            d.sharers.clear();
            Message resp;
            resp.type = MsgType::RespExclData;
            resp.addr = msg.addr;
            resp.dst = req;
            resp.version = d.memVersion;
            resp.ackCount = 0;
            resp.txnId = msg.txnId;
            hub.sendAt(dir.withMemData(ready), resp);
            break;
          }

          case DirState::Shared: {
            const bool is_upgrade =
                msg.type == MsgType::ReqUpgrade && d.isSharer(req);
            // Table 3 instrumentation: consumers per producer-consumer
            // write = sharers being invalidated (excluding the writer).
            if (e.detector.isProducerConsumer(cfg.detector)) {
                unsigned others = 0;
                d.sharers.forEachNode(cfg.numNodes, [&](NodeId n) {
                    others += n != req;
                });
                hub.sampleConsumers(msg.addr, others);
            }
            // Invalidate every other sharer; acks go to the requester.
            // Coarse vectors expand to whole node groups here: members
            // without a copy simply ack (the ack count matches the
            // invals sent, so the requester's bookkeeping balances).
            std::uint16_t acks = 0;
            d.sharers.forEachNode(cfg.numNodes, [&](NodeId n) {
                if (n == req)
                    return;
                ++acks;
                ++hub.stats().interventionsSent;
                Message iv;
                iv.type = MsgType::Inval;
                iv.addr = msg.addr;
                iv.dst = n;
                iv.requester = req;
                iv.txnId = msg.txnId;
                // Carry the superseded epoch so late speculative
                // updates for older epochs can be recognized/dropped.
                iv.version = d.memVersion;
                hub.sendAt(ready, iv);
            });
            d.state = DirState::Excl;
            d.owner = req;
            d.sharers.clear();

            Message resp;
            resp.addr = msg.addr;
            resp.dst = req;
            resp.ackCount = acks;
            resp.txnId = msg.txnId;
            Tick when = ready;
            if (is_upgrade) {
                resp.type = MsgType::RespUpgradeAck;
            } else {
                resp.type = MsgType::RespExclData;
                resp.version = d.memVersion;
                when = dir.withMemData(ready);
            }
            hub.sendAt(when, resp);
            break;
          }

          case DirState::Excl: {
            if (d.owner == req) {
                hub.sendNack(MsgType::Nack, msg.addr, req, msg.txnId, ready);
                break;
            }
            d.pendingReq = req;
            d.pendingType = msg.type;
            d.pendingOwner = d.owner;
            d.pendingTxnId = msg.txnId;
            d.state = DirState::BusyExcl;
            ++hub.stats().interventionsSent;
            Message iv;
            iv.type = MsgType::IntervTransfer;
            iv.addr = msg.addr;
            iv.dst = d.pendingOwner;
            iv.requester = req;
            iv.txnId = msg.txnId;
            hub.sendAt(ready, iv);
            break;
          }

          case DirState::BusyRead:
          case DirState::BusyExcl:
            dir.nackOrQueue(msg, ready);
            break;

          case DirState::Dele:
            dir.forwardToDelegate(msg, e, ready);
            break;

          default:
            panic("node %u: write in dir state %s under %s", hub.id(),
                  dirStateName(d.state), name());
        }
    }

    void
    finishStore(CacheController &, Addr, L2Entry &entry) const override
    {
        entry.state = LineState::Modified;
    }

    void
    updateSharedCopy(CacheController &, const Message &,
                     L2Entry &) const override
    {
        // Invalidate-based protocols: a valid copy is already the
        // current epoch (pushes target consumers that lost theirs).
    }

  private:
    ProtocolKind _kind;
};

// --- Dragon-style write-update --------------------------------------

class WriteUpdatePolicy : public CoherencePolicy
{
  public:
    ProtocolKind kind() const override
    {
        return ProtocolKind::WriteUpdate;
    }

    const verify::TransitionSpec &
    spec() const override
    {
        return verify::writeUpdateSpec();
    }

    void
    handleRead(DirController &dir, const Message &msg, DirCacheEntry &e,
               Tick ready) const override
    {
        Hub &hub = dir.hub();
        const NodeId req = msg.requester;
        DirEntry &d = e.dir;

        switch (d.state) {
          case DirState::Unowned:
          case DirState::Shared: {
            d.state = DirState::Shared;
            d.addSharer(req);
            Message resp;
            resp.type = MsgType::RespSharedData;
            resp.addr = msg.addr;
            resp.dst = req;
            resp.version = d.memVersion;
            resp.txnId = msg.txnId;
            hub.sendAt(dir.withMemData(ready), resp);
            break;
          }

          case DirState::BusyUpd:
            // A write episode is open; the requester retries (or
            // parks) until the UpdateWB lands and reads the fresh
            // epoch.
            dir.nackOrQueue(msg, ready);
            break;

          default:
            panic("node %u: read in dir state %s under %s", hub.id(),
                  dirStateName(d.state), name());
        }
    }

    void
    handleWrite(DirController &dir, const Message &msg, DirCacheEntry &e,
                Tick ready) const override
    {
        Hub &hub = dir.hub();
        const NodeId req = msg.requester;
        DirEntry &d = e.dir;

        switch (d.state) {
          case DirState::Unowned:
          case DirState::Shared: {
            // Open the episode: the line is unreachable (NACK) until
            // the writer's UpdateWB closes it, which serializes
            // writers and keeps the lost-update check sound.
            d.state = DirState::BusyUpd;
            d.pendingReq = req;
            d.pendingType = msg.type;
            d.pendingTxnId = msg.txnId;
            ++hub.stats().updateEpisodes;
            Message grant;
            grant.type = MsgType::UpdGrant;
            grant.addr = msg.addr;
            grant.dst = req;
            grant.version = d.memVersion;
            grant.ackCount = 0;
            grant.txnId = msg.txnId;
            hub.sendAt(dir.withMemData(ready), grant);
            break;
          }

          case DirState::BusyUpd:
            dir.nackOrQueue(msg, ready);
            break;

          default:
            panic("node %u: write in dir state %s under %s", hub.id(),
                  dirStateName(d.state), name());
        }
    }

    void
    handleUpdateWB(DirController &dir, const Message &msg,
                   DirCacheEntry &e, Tick ready) const override
    {
        Hub &hub = dir.hub();
        DirEntry &d = e.dir;
        if (d.state != DirState::BusyUpd || d.pendingReq != msg.requester)
            panic("node %u: UpdateWB from %u in dir state %s "
                  "(pending %u)",
                  hub.id(), msg.requester, dirStateName(d.state),
                  d.pendingReq);

        // Commit the epoch and push it to every other sharer. Coarse
        // vectors expand to whole groups; members without a copy drop
        // the push at INVALID.
        d.memVersion = msg.version;
        d.sharers.forEachNode(hub.cfg().numNodes, [&](NodeId n) {
            if (n == msg.requester)
                return;
            ++hub.stats().updatesSent;
            Message up;
            up.type = MsgType::Update;
            up.addr = msg.addr;
            up.dst = n;
            up.requester = msg.requester;
            up.version = msg.version;
            hub.sendAt(ready, up);
        });
        d.addSharer(msg.requester);
        d.state = DirState::Shared;
        d.pendingReq = invalidNode;
    }

    void
    finishStore(CacheController &cc, Addr line,
                L2Entry &entry) const override
    {
        // Self-downgrade: the writer keeps a SHARED copy and returns
        // the new data to the home, which fans out the updates.
        entry.state = LineState::Shared;
        entry.staleUpdates = 0;
        Hub &hub = cc.hub();
        Message wb;
        wb.type = MsgType::UpdateWB;
        wb.addr = line;
        wb.dst = hub.homeOf(line);
        wb.requester = hub.id();
        wb.version = entry.version;
        hub.send(wb);
    }

    void
    updateSharedCopy(CacheController &cc, const Message &msg,
                     L2Entry &entry) const override
    {
        if (msg.version > entry.version)
            entry.version = msg.version;
        ++entry.staleUpdates;
        ++cc.hub().stats().updatesApplied;
    }
};

// --- Per-line adaptive hybrid ---------------------------------------

class AdaptiveHybridPolicy : public WriteUpdatePolicy
{
  public:
    ProtocolKind kind() const override
    {
        return ProtocolKind::AdaptiveHybrid;
    }

    const verify::TransitionSpec &
    spec() const override
    {
        return verify::adaptiveHybridSpec();
    }

    void
    handleUpdateDrop(DirController &dir, const Message &msg,
                     DirCacheEntry &e, Tick) const override
    {
        // Exact sharer vectors stop updating the node; coarse vectors
        // cannot single one node out of its group, so the group stays
        // listed and the consumer keeps dropping pushes at INVALID.
        if (dir.hub().cfg().sharerGranularityLog2 == 0)
            e.dir.removeSharer(msg.requester);
    }

    void
    updateSharedCopy(CacheController &cc, const Message &msg,
                     L2Entry &entry) const override
    {
        Hub &hub = cc.hub();
        if (entry.staleUpdates + 1 >= hub.cfg().adaptiveThreshold) {
            // This copy keeps absorbing pushes nobody reads: leave
            // the update stream and fall back toward invalidate
            // behavior for this line.
            ++hub.stats().adaptiveDrops;
            cc.dropLine(msg.addr);
            Message drop;
            drop.type = MsgType::UpdateDrop;
            drop.addr = msg.addr;
            drop.dst = hub.homeOf(msg.addr);
            drop.requester = hub.id();
            hub.send(drop);
            return;
        }
        WriteUpdatePolicy::updateSharedCopy(cc, msg, entry);
    }
};

} // namespace

const CoherencePolicy &
policyFor(ProtocolKind kind)
{
    static const MesiDelePolicy mesiDir(ProtocolKind::MesiDir);
    static const MesiDelePolicy delegation(ProtocolKind::Delegation);
    static const MesiDelePolicy delegationUpdates(
        ProtocolKind::DelegationUpdates);
    static const WriteUpdatePolicy writeUpdate;
    static const AdaptiveHybridPolicy adaptiveHybrid;

    switch (kind) {
      case ProtocolKind::MesiDir: return mesiDir;
      case ProtocolKind::Delegation: return delegation;
      case ProtocolKind::DelegationUpdates: return delegationUpdates;
      case ProtocolKind::WriteUpdate: return writeUpdate;
      case ProtocolKind::AdaptiveHybrid: return adaptiveHybrid;
      case ProtocolKind::NumProtocolKinds: break;
    }
    panic("policyFor: unknown ProtocolKind %u",
          static_cast<unsigned>(kind));
}

const std::vector<ProtocolKind> &
registeredPolicyKinds()
{
    static const std::vector<ProtocolKind> kinds = {
        ProtocolKind::MesiDir,
        ProtocolKind::Delegation,
        ProtocolKind::DelegationUpdates,
        ProtocolKind::WriteUpdate,
        ProtocolKind::AdaptiveHybrid,
    };
    return kinds;
}

verify::McCheckSet
modelCheckSetFor(ProtocolKind kind)
{
    switch (kind) {
      case ProtocolKind::WriteUpdate:
        return verify::McCheckSet::WriteUpdate;
      case ProtocolKind::AdaptiveHybrid:
        return verify::McCheckSet::AdaptiveHybrid;
      default:
        return verify::McCheckSet::MesiDele;
    }
}

LintRun
lintPolicies(LintPass pass, const std::vector<ProtocolKind> &kinds,
             bool model_check)
{
    LintRun run{pass, {}};
    std::map<std::pair<const verify::TransitionSpec *, verify::McCheckSet>,
             PolicyLint>
        done;
    for (ProtocolKind kind : kinds) {
        const verify::TransitionSpec &spec = policyFor(kind).spec();
        const verify::McCheckSet set = modelCheckSetFor(kind);
        auto it = done.find({&spec, set});
        if (it == done.end()) {
            PolicyLint a{kind, nullptr, nullptr, nullptr};
            switch (pass) {
              case LintPass::Spec:
                a.spec = std::make_shared<const verify::LintReport>(
                    model_check ? verify::lintSpecWithModel(spec, set)
                                : verify::lintSpec(spec));
                break;
              case LintPass::Mdg:
                a.mdg = std::make_shared<const verify::MdgReport>(
                    verify::analyzeMdg(spec));
                break;
              case LintPass::Liveness:
                a.liveness = std::make_shared<const verify::LivenessReport>(
                    verify::analyzeLiveness(verify::modelConfigsFor(set)));
                break;
            }
            it = done.emplace(std::make_pair(&spec, set), a).first;
        }
        run.policies.push_back(it->second);
        run.policies.back().kind = kind;
    }
    return run;
}

namespace
{

void
printFindings(std::FILE *out,
              const std::vector<verify::LintFinding> &findings)
{
    for (const verify::LintFinding &f : findings) {
        std::string where = f.ctrl;
        if (!f.state.empty())
            where += " " + f.state;
        if (!f.event.empty())
            where += (where.empty() ? "" : " x ") + f.event;
        std::fprintf(out, "%s: %s: %s\n", f.kind.c_str(), where.c_str(),
                     f.detail.c_str());
    }
}

void
printLiveness(std::FILE *out, const verify::LivenessReport &rep)
{
    for (const auto &c : rep.configs) {
        std::fprintf(out,
                     "  config %s: %llu states, %llu edges (%llu "
                     "progress), %llu quiescent%s\n",
                     c.name.c_str(), (unsigned long long)c.states,
                     (unsigned long long)c.edges,
                     (unsigned long long)c.progressEdges,
                     (unsigned long long)c.quiescentStates,
                     c.completed ? "" : " [state limit hit]");
    }
    const auto steps = [&](const char *what,
                           const std::vector<std::string> &hops) {
        std::fprintf(out, "  %s (%zu steps):\n", what, hops.size());
        for (std::size_t i = 0; i < hops.size(); ++i)
            std::fprintf(out, "    %3zu. %s\n", i + 1, hops[i].c_str());
    };
    for (const auto &f : rep.findings) {
        std::fprintf(out, "%s (%s): %s\n", f.kind.c_str(),
                     f.config.c_str(), f.detail.c_str());
        steps("witness prefix", f.witness.prefix);
        if (!f.witness.cycle.empty())
            steps("non-progress cycle", f.witness.cycle);
    }
}

} // namespace

std::size_t
LintRun::findings() const
{
    std::size_t n = 0;
    for (const PolicyLint &p : policies)
        n += p.spec  ? p.spec->findings.size()
             : p.mdg ? p.mdg->findings.size()
                     : p.liveness->findings.size();
    return n;
}

JsonValue
LintRun::toJson() const
{
    JsonValue fragments = JsonValue::array();
    for (const PolicyLint &p : policies) {
        const CoherencePolicy &policy = policyFor(p.kind);
        if (p.spec)
            fragments.push(verify::lintPolicyJson(
                policy.name(), policy.spec(), *p.spec));
        else if (p.mdg)
            fragments.push(verify::mdgPolicyJson(
                policy.name(), policy.spec(), *p.mdg));
        else
            fragments.push(
                verify::livenessPolicyJson(policy.name(), *p.liveness));
    }
    const char *mode = pass == LintPass::Spec  ? "spec"
                       : pass == LintPass::Mdg ? "mdg"
                                               : "liveness";
    return verify::lintFindingsDocument(mode, std::move(fragments));
}

std::string
LintRun::toCsv() const
{
    std::string out = "policy,kind,controller,state,event,detail\n";
    for (const PolicyLint &p : policies) {
        if (p.liveness)
            continue;
        for (const verify::LintFinding &f :
             p.spec ? p.spec->findings : p.mdg->findings) {
            out += csvField(policyFor(p.kind).name()) + ',' +
                   csvField(f.kind) + ',' + csvField(f.ctrl) + ',' +
                   csvField(f.state) + ',' + csvField(f.event) + ',' +
                   csvField(f.detail) + '\n';
        }
    }
    return out;
}

void
LintRun::print(std::FILE *out) const
{
    for (const PolicyLint &p : policies) {
        const CoherencePolicy &policy = policyFor(p.kind);
        if (p.spec) {
            std::fprintf(out,
                         "policy %s:\nspec: %zu rules, %zu impossible "
                         "pairs\n",
                         policy.name(), policy.spec().rules().size(),
                         policy.spec().impossible().size());
            if (p.spec->mcConfigs)
                std::fprintf(out,
                             "model cross-check: %llu configs, %llu "
                             "states, %llu distinct transitions\n",
                             (unsigned long long)p.spec->mcConfigs,
                             (unsigned long long)p.spec->mcStates,
                             (unsigned long long)p.spec->mcObserved);
            printFindings(out, p.spec->findings);
        } else if (p.mdg) {
            std::fprintf(out,
                         "policy %s: %zu message types, %zu edges, %zu "
                         "sinks (%llu requester-bound, %llu "
                         "nack-protected edges exempt)\n",
                         policy.name(), p.mdg->messages.size(),
                         p.mdg->edges.size(), p.mdg->sinks.size(),
                         (unsigned long long)p.mdg->reissueEdges,
                         (unsigned long long)p.mdg->nackProtectedEdges);
            printFindings(out, p.mdg->findings);
        } else {
            std::fprintf(out, "policy %s:\n", policy.name());
            printLiveness(out, *p.liveness);
        }
    }
    const char *what = pass == LintPass::Spec  ? "lint"
                       : pass == LintPass::Mdg ? "mdg"
                                               : "liveness";
    if (const std::size_t n = findings())
        std::fprintf(out, "%s: %zu finding(s)\n", what, n);
    else
        std::fprintf(out, "%s: clean\n", what);
}

} // namespace pcsim
