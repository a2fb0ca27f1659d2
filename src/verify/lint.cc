#include "src/verify/lint.hh"

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <map>
#include <set>

#include "src/mc/explorer.hh"
#include "src/mc/protocol_model.hh"
#include "src/sim/file_io.hh"
#include "src/verify/liveness.hh"

namespace pcsim::verify
{

namespace
{

std::uint32_t
encodeKey(unsigned ctrl, unsigned state, unsigned event)
{
    return (ctrl << 16) | (state << 8) | event;
}

std::uint32_t
encodeTuple(unsigned ctrl, unsigned state, unsigned event,
            unsigned next)
{
    return (ctrl << 24) | (state << 16) | (event << 8) | next;
}

void
finding(LintReport &r, const char *kind, Ctrl c, const std::string &state,
        const std::string &event, std::string detail)
{
    r.findings.push_back(
        {kind, ctrlName(c), state, event, std::move(detail)});
}

// --- Pass 1: unhandled (state, event) pairs -------------------------

void
lintUnhandled(const TransitionSpec &spec, LintReport &r)
{
    for (unsigned ci = 0;
         ci < static_cast<unsigned>(Ctrl::NumCtrls); ++ci) {
        const Ctrl c = static_cast<Ctrl>(ci);
        for (const auto &[s, name] : spec.states(c)) {
            for (PEvent e : spec.relevant(c)) {
                if (spec.find(c, s, e) || spec.isImpossible(c, s, e))
                    continue;
                finding(r, "unhandled", c, name, eventName(e),
                        "no rule and no impossible declaration for "
                        "this (state, event) pair");
            }
        }
    }
}

// --- Pass 2: ambiguous / conflicting entries ------------------------

void
lintAmbiguous(const TransitionSpec &spec, LintReport &r)
{
    std::map<std::uint32_t, unsigned> seen;
    for (const TransitionRule &rule : spec.rules()) {
        const auto key =
            encodeKey(static_cast<unsigned>(rule.ctrl), rule.state,
                      static_cast<unsigned>(rule.event));
        if (++seen[key] == 2) {
            finding(r, "ambiguous", rule.ctrl,
                    spec.stateName(rule.ctrl, rule.state),
                    eventName(rule.event),
                    "duplicate rules for this (state, event) pair; "
                    "lookups use the first");
        }
    }
    for (const TransitionRule &rule : spec.rules()) {
        if (spec.isImpossible(rule.ctrl, rule.state, rule.event)) {
            finding(r, "ambiguous", rule.ctrl,
                    spec.stateName(rule.ctrl, rule.state),
                    eventName(rule.event),
                    "pair has both a rule and an impossible "
                    "declaration");
        }
    }
}

// --- Pass 3: unreachable states -------------------------------------

void
lintUnreachable(const TransitionSpec &spec, LintReport &r)
{
    for (unsigned ci = 0;
         ci < static_cast<unsigned>(Ctrl::NumCtrls); ++ci) {
        const Ctrl c = static_cast<Ctrl>(ci);
        std::set<StateId> reach = {spec.initialState(c)};
        bool grew = true;
        while (grew) {
            grew = false;
            for (const TransitionRule &rule : spec.rules()) {
                if (rule.ctrl != c || !reach.count(rule.state))
                    continue;
                for (StateId n : rule.next)
                    grew |= reach.insert(n).second;
            }
        }
        for (const auto &[s, name] : spec.states(c)) {
            if (!reach.count(s)) {
                finding(r, "unreachable", c, name, "",
                        "no chain of rules reaches this state from "
                        "the initial state '" +
                            spec.stateName(c, spec.initialState(c)) +
                            "'");
            }
        }
    }
}

// --- Pass 4: model cross-check --------------------------------------

/** Collects the distinct transitions the abstract model takes. */
class TupleCollector : public mc::TransitionListener
{
  public:
    void
    onTransition(int ctrl, int pre, int event, int post) override
    {
        _seen.insert(encodeTuple(ctrl, pre, event, post));
    }

    const std::set<std::uint32_t> &seen() const { return _seen; }

  private:
    std::set<std::uint32_t> _seen;
};

void
lintModelCrossCheck(const TransitionSpec &spec, McCheckSet set,
                    LintReport &r)
{
    // The configuration family is shared with the liveness pass (see
    // src/verify/liveness.hh) so both verify the same models.
    std::map<std::uint32_t, std::string> observed; // tuple -> config
    for (const NamedModelConfig &mcfg : modelConfigsFor(set)) {
        mc::ProtocolModel model(mcfg.cfg);
        TupleCollector collector;
        model.setListener(&collector);
        Explorer<mc::ProtocolModel> explorer(model);
        try {
            McResult res = explorer.run();
            r.mcStates += res.statesExplored;
        } catch (const McError &e) {
            finding(r, "mc-mismatch", Ctrl::Cache, "", "",
                    std::string("model exploration failed (") +
                        mcfg.name + "): " + e.what());
            continue;
        }
        ++r.mcConfigs;
        for (std::uint32_t t : collector.seen()) {
            if (!observed.count(t))
                observed[t] = mcfg.name;
        }
    }
    r.mcObserved = observed.size();

    for (const auto &[tuple, config] : observed) {
        const unsigned ctrl = (tuple >> 24) & 0xff;
        const unsigned pre = (tuple >> 16) & 0xff;
        const unsigned ev = (tuple >> 8) & 0xff;
        const unsigned post = tuple & 0xff;

        const Ctrl c = static_cast<Ctrl>(ctrl);
        StateId specPre, specPost;
        PEvent specEv;
        if (!mapMcState(ctrl, pre, specPre) ||
            !mapMcState(ctrl, post, specPost) ||
            !mapMcEvent(ev, specEv)) {
            finding(r, "mc-mismatch", c, "", "",
                    "unmappable model transition (ctrl " +
                        std::to_string(ctrl) + ", pre " +
                        std::to_string(pre) + ", event " +
                        std::to_string(ev) + ", post " +
                        std::to_string(post) + ")");
            continue;
        }

        if (spec.isImpossible(c, specPre, specEv)) {
            finding(r, "mc-mismatch", c,
                    spec.stateName(c, specPre), eventName(specEv),
                    std::string("model (") + config +
                        ") exercises a pair the spec declares "
                        "impossible");
            continue;
        }
        const TransitionRule *rule = spec.find(c, specPre, specEv);
        if (!rule) {
            finding(r, "mc-mismatch", c,
                    spec.stateName(c, specPre), eventName(specEv),
                    std::string("model (") + config +
                        ") exercises a pair the spec has no rule "
                        "for");
            continue;
        }
        if (!rule->allowsNext(specPost)) {
            finding(r, "mc-mismatch", c,
                    spec.stateName(c, specPre), eventName(specEv),
                    std::string("model (") + config + ") reaches '" +
                        spec.stateName(c, specPost) +
                        "', outside the rule's allowed set");
        }
    }
}

} // namespace

LintReport
lintSpec(const TransitionSpec &spec)
{
    LintReport r;
    lintUnhandled(spec, r);
    lintAmbiguous(spec, r);
    lintUnreachable(spec, r);
    return r;
}

LintReport
lintSpecWithModel(const TransitionSpec &spec, McCheckSet set)
{
    LintReport r = lintSpec(spec);
    lintModelCrossCheck(spec, set, r);
    return r;
}

JsonValue
lintFindingsJson(const std::vector<LintFinding> &findings)
{
    JsonValue arr = JsonValue::array();
    for (const LintFinding &f : findings) {
        JsonValue e = JsonValue::object();
        e["kind"] = JsonValue(f.kind);
        e["controller"] = JsonValue(f.ctrl);
        e["state"] = JsonValue(f.state);
        e["event"] = JsonValue(f.event);
        e["detail"] = JsonValue(f.detail);
        arr.push(std::move(e));
    }
    return arr;
}

JsonValue
lintPolicyJson(const std::string &policy, const TransitionSpec &spec,
               const LintReport &r)
{
    JsonValue doc = JsonValue::object();
    doc["policy"] = JsonValue(policy);

    JsonValue sp = JsonValue::object();
    sp["rules"] = JsonValue(std::uint64_t(spec.rules().size()));
    sp["impossible"] =
        JsonValue(std::uint64_t(spec.impossible().size()));
    JsonValue states = JsonValue::object();
    for (unsigned ci = 0;
         ci < static_cast<unsigned>(Ctrl::NumCtrls); ++ci) {
        const Ctrl c = static_cast<Ctrl>(ci);
        states[ctrlName(c)] =
            JsonValue(std::uint64_t(spec.states(c).size()));
    }
    sp["states"] = std::move(states);
    doc["spec"] = std::move(sp);

    if (r.mcConfigs) {
        JsonValue model = JsonValue::object();
        model["configs"] = JsonValue(r.mcConfigs);
        model["statesExplored"] = JsonValue(r.mcStates);
        model["observedTransitions"] = JsonValue(r.mcObserved);
        doc["model"] = std::move(model);
    }

    doc["findings"] = lintFindingsJson(r.findings);
    return doc;
}

JsonValue
lintFindingsDocument(const std::string &mode, JsonValue policies)
{
    JsonValue doc = JsonValue::object();
    doc["schemaVersion"] = JsonValue(std::uint64_t(1));
    doc["generator"] = JsonValue("pcsim-lint");
    doc["mode"] = JsonValue(mode);
    doc["policies"] = std::move(policies);
    return doc;
}

CoverageReport
computeCoverage(const TransitionSpec &spec,
                const std::vector<TransitionCount> &observed)
{
    std::map<std::uint32_t, std::uint64_t> counts;
    for (const TransitionCount &t : observed)
        counts[encodeTuple(t.ctrl, t.state, t.event, t.next)] +=
            t.count;

    CoverageReport r;
    std::set<std::uint32_t> emitted;
    for (const TransitionRule &rule : spec.rules()) {
        for (StateId n : rule.next) {
            const std::uint32_t key = encodeTuple(
                static_cast<unsigned>(rule.ctrl), rule.state,
                static_cast<unsigned>(rule.event), n);
            if (!emitted.insert(key).second)
                continue;
            CoverageRow row;
            row.ctrl = rule.ctrl;
            row.state = rule.state;
            row.event = rule.event;
            row.next = n;
            auto it = counts.find(key);
            row.count = it == counts.end() ? 0 : it->second;
            if (row.count)
                ++r.exercised;
            r.rows.push_back(row);
        }
    }
    r.legal = r.rows.size();
    return r;
}

JsonValue
coverageToJson(const TransitionSpec &spec, const CoverageReport &r)
{
    JsonValue doc = JsonValue::object();
    doc["schemaVersion"] = JsonValue(std::uint64_t(1));
    doc["generator"] = JsonValue("pcsim-lint");

    JsonValue summary = JsonValue::object();
    summary["legalTransitions"] = JsonValue(r.legal);
    summary["exercised"] = JsonValue(r.exercised);
    summary["missing"] = JsonValue(r.legal - r.exercised);
    doc["summary"] = std::move(summary);

    auto rowJson = [&](const CoverageRow &row) {
        JsonValue e = JsonValue::object();
        e["controller"] = JsonValue(ctrlName(row.ctrl));
        e["state"] = JsonValue(spec.stateName(row.ctrl, row.state));
        e["event"] = JsonValue(eventName(row.event));
        e["next"] = JsonValue(spec.stateName(row.ctrl, row.next));
        e["count"] = JsonValue(row.count);
        return e;
    };

    JsonValue missing = JsonValue::array();
    for (const CoverageRow &row : r.rows) {
        if (!row.count)
            missing.push(rowJson(row));
    }
    doc["missing"] = std::move(missing);

    JsonValue all = JsonValue::array();
    for (const CoverageRow &row : r.rows)
        all.push(rowJson(row));
    doc["transitions"] = std::move(all);
    return doc;
}

std::string
coverageToCsv(const TransitionSpec &spec, const CoverageReport &r)
{
    std::string out = "controller,state,event,next,count\n";
    for (const CoverageRow &row : r.rows) {
        out += csvField(ctrlName(row.ctrl)) + ',' +
               csvField(spec.stateName(row.ctrl, row.state)) + ',' +
               csvField(eventName(row.event)) + ',' +
               csvField(spec.stateName(row.ctrl, row.next)) + ',' +
               std::to_string(row.count) + '\n';
    }
    return out;
}

} // namespace pcsim::verify
