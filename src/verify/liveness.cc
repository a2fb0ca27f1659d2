#include "src/verify/liveness.hh"

#include <algorithm>
#include <deque>

#include "src/mc/explorer.hh"

namespace pcsim::verify
{
namespace
{

using MState = mc::ProtocolModel::State;
using Graph = McGraph<MState>;

/** Progress measure (see file header of liveness.hh): remaining op
 *  budgets plus occupied MSHRs; strictly decreases exactly when an
 *  operation completes. */
unsigned
weightOf(const MState &s, unsigned nodes)
{
    unsigned w = s.writesLeft;
    for (unsigned n = 0; n < nodes; ++n)
        w += s.readsLeft[n] + (s.mshr[n] ? 1u : 0u);
    return w;
}

/** CPU operations injected on the hop a -> b (empty for pure message
 *  steps). Hits complete within the hop; misses occupy the MSHR. */
void
hopOps(const MState &a, const MState &b, unsigned nodes,
       std::vector<WitnessOp> &ops)
{
    for (unsigned n = 0; n < nodes; ++n) {
        if (!a.mshr[n] && b.mshr[n]) {
            ops.push_back({static_cast<std::uint8_t>(n),
                           b.mshr[n] == 2});
            return;
        }
        if (a.readsLeft[n] > b.readsLeft[n] && !a.mshr[n] &&
            !b.mshr[n]) {
            ops.push_back({static_cast<std::uint8_t>(n), false});
            return;
        }
    }
    if (a.writesLeft > b.writesLeft) {
        // Store hit on an M copy: performed in place, MSHR untouched.
        for (unsigned n = 0; n < nodes; ++n) {
            if (b.cache[n] == LineState::Modified &&
                b.cacheV[n] != a.cacheV[n]) {
                ops.push_back({static_cast<std::uint8_t>(n), true});
                return;
            }
        }
    }
}

/** Human-readable label for the hop a -> b, derived by diffing the
 *  two states: channel deliveries/sends and CPU op activity. */
std::string
hopLabel(const MState &a, const MState &b, unsigned nodes)
{
    std::string out;
    auto add = [&out](const std::string &part) {
        if (!out.empty())
            out += ", ";
        out += part;
    };

    for (unsigned s = 0; s < nodes; ++s) {
        for (unsigned d = 0; d < nodes; ++d) {
            const unsigned la = a.chanLen[s][d], lb = b.chanLen[s][d];
            if (lb < la)
                add(std::string("deliver ") +
                    msgTypeName(a.chan[s][d][0].type) + " " +
                    std::to_string(s) + "->" + std::to_string(d));
            for (unsigned i = la; i < lb; ++i)
                add(std::string("send ") +
                    msgTypeName(b.chan[s][d][i].type) + " " +
                    std::to_string(s) + "->" + std::to_string(d));
        }
    }
    for (unsigned n = 0; n < nodes; ++n) {
        if (!a.mshr[n] && b.mshr[n])
            add("node " + std::to_string(n) + " issues " +
                (b.mshr[n] == 2 ? "write" : "read"));
        else if (a.mshr[n] && !b.mshr[n])
            add("node " + std::to_string(n) + " completes " +
                (a.mshr[n] == 2 ? "write" : "read"));
        if (a.readsLeft[n] > b.readsLeft[n] && !a.mshr[n] &&
            !b.mshr[n])
            add("node " + std::to_string(n) + " read hit");
    }
    if (a.writesLeft > b.writesLeft) {
        bool issued = false;
        for (unsigned n = 0; n < nodes; ++n)
            issued |= !a.mshr[n] && b.mshr[n] == 2;
        if (!issued)
            add("write hit");
    }
    if (out.empty())
        out = "internal step";
    return out;
}

/** BFS-tree path of state ids from the initial state to @p target. */
std::vector<std::uint32_t>
pathTo(const Graph &g, std::uint32_t target)
{
    std::vector<std::uint32_t> path{target};
    while (path.back() != 0)
        path.push_back(g.parent[path.back()]);
    std::reverse(path.begin(), path.end());
    return path;
}

/** Render consecutive hops of @p ids into labels and collect ops. */
void
renderHops(const Graph &g, const std::vector<std::uint32_t> &ids,
           unsigned nodes, std::vector<std::string> &labels,
           std::vector<WitnessOp> &ops)
{
    for (std::size_t i = 0; i + 1 < ids.size(); ++i) {
        const MState &a = g.states[ids[i]];
        const MState &b = g.states[ids[i + 1]];
        labels.push_back(hopLabel(a, b, nodes));
        hopOps(a, b, nodes, ops);
    }
}

void
analyzeConfig(const NamedModelConfig &ncfg, std::uint64_t max_states,
              LivenessReport &report)
{
    mc::ProtocolModel model(ncfg.cfg);
    const Graph g = explore(model, max_states);
    const unsigned nodes = ncfg.cfg.nodes;
    const std::uint32_t n = static_cast<std::uint32_t>(g.states.size());

    std::vector<unsigned> w(n);
    for (std::uint32_t i = 0; i < n; ++i)
        w[i] = weightOf(g.states[i], nodes);

    LivenessConfigStats stats;
    stats.name = ncfg.name;
    stats.states = n;
    stats.completed = g.completed;

    // Good states: quiescent, or source of a progress edge, or able
    // to reach either -- computed by reverse BFS.
    std::vector<std::vector<std::uint32_t>> rev(n);
    std::vector<bool> good(n, false);
    std::deque<std::uint32_t> work;
    for (std::uint32_t u = 0; u < n; ++u) {
        if (g.quiescent[u]) {
            ++stats.quiescentStates;
            if (!good[u]) {
                good[u] = true;
                work.push_back(u);
            }
        }
        for (std::uint32_t v : g.succ(u)) {
            ++stats.edges;
            rev[v].push_back(u);
            if (w[v] < w[u]) {
                ++stats.progressEdges;
                if (!good[u]) {
                    good[u] = true;
                    work.push_back(u);
                }
            }
        }
    }
    while (!work.empty()) {
        const std::uint32_t v = work.front();
        work.pop_front();
        for (std::uint32_t u : rev[v]) {
            if (!good[u]) {
                good[u] = true;
                work.push_back(u);
            }
        }
    }
    report.configs.push_back(stats);

    // Hard deadlocks first: one finding, the earliest-discovered one.
    if (!g.deadlocks.empty()) {
        const std::uint32_t id = g.deadlocks.front();
        LivenessFinding f;
        f.kind = "deadlock";
        f.config = ncfg.name;
        renderHops(g, pathTo(g, id), nodes, f.witness.prefix,
                   f.witness.ops);
        f.detail = "hard deadlock after " +
                   std::to_string(f.witness.prefix.size()) +
                   " steps: no enabled transition in a non-quiescent "
                   "state\n" +
                   model.blockedSummary(g.states[id]);
        report.findings.push_back(std::move(f));
    }

    // Livelock: a cycle within the bad (non-good) region. Trim bad
    // states with no bad successor (Kahn over the bad subgraph);
    // whatever remains is the union of its cycles.
    std::vector<std::uint32_t> bad_outdeg(n, 0);
    std::uint64_t bad_states = 0;
    for (std::uint32_t u = 0; u < n; ++u) {
        if (good[u])
            continue;
        ++bad_states;
        for (std::uint32_t v : g.succ(u))
            if (!good[v])
                ++bad_outdeg[u];
    }
    std::deque<std::uint32_t> trim;
    for (std::uint32_t u = 0; u < n; ++u)
        if (!good[u] && bad_outdeg[u] == 0)
            trim.push_back(u);
    std::vector<bool> trimmed(n, false);
    while (!trim.empty()) {
        const std::uint32_t v = trim.front();
        trim.pop_front();
        trimmed[v] = true;
        for (std::uint32_t u : rev[v]) {
            if (good[u] || trimmed[u])
                continue;
            if (--bad_outdeg[u] == 0)
                trim.push_back(u);
        }
    }

    std::uint32_t entry = n;
    for (std::uint32_t u = 0; u < n; ++u) {
        if (!good[u] && !trimmed[u]) {
            entry = u;
            break;
        }
    }
    if (entry == n)
        return; // no non-progress cycle: live (or deadlock-only)

    // Walk first kept-bad successors from the entry until a state
    // repeats; the tail from the first repeat is the cycle.
    std::vector<std::uint32_t> walk{entry};
    std::vector<std::uint32_t> pos(n, n);
    pos[entry] = 0;
    for (;;) {
        std::uint32_t next = entry;
        for (std::uint32_t v : g.succ(walk.back())) {
            if (!good[v] && !trimmed[v]) {
                next = v;
                break;
            }
        }
        if (pos[next] != n) {
            walk.erase(walk.begin(), walk.begin() + pos[next]);
            walk.push_back(next);
            break;
        }
        pos[next] = static_cast<std::uint32_t>(walk.size());
        walk.push_back(next);
    }

    LivenessFinding f;
    f.kind = "livelock";
    f.config = ncfg.name;
    renderHops(g, pathTo(g, walk.front()), nodes, f.witness.prefix,
               f.witness.ops);
    std::vector<WitnessOp> cycle_ops;
    renderHops(g, walk, nodes, f.witness.cycle, cycle_ops);
    f.witness.ops.insert(f.witness.ops.end(), cycle_ops.begin(),
                         cycle_ops.end());
    f.detail = "livelock: " + std::to_string(bad_states) + " of " +
               std::to_string(n) +
               " states can neither complete another operation nor "
               "reach quiescence; non-progress cycle of length " +
               std::to_string(f.witness.cycle.size()) +
               " reachable after " +
               std::to_string(f.witness.prefix.size()) + " steps";
    report.findings.push_back(std::move(f));
}

} // namespace

std::vector<NamedModelConfig>
modelConfigsFor(McCheckSet set)
{
    // 3-node abstraction, one mechanism at a time (matching how the
    // model is verified in tests); read budget 1 keeps each
    // exploration exhaustive and fast.
    auto make = [](std::string name, bool delegation, bool updates,
                   bool write_update, bool adaptive,
                   bool home_queue = false) {
        NamedModelConfig c;
        c.name = std::move(name);
        c.cfg.nodes = 3;
        c.cfg.maxWrites = 2;
        c.cfg.maxReads = 1;
        c.cfg.delegation = delegation;
        c.cfg.updates = updates;
        c.cfg.writeUpdate = write_update;
        c.cfg.adaptive = adaptive;
        c.cfg.homeQueue = home_queue;
        return c;
    };

    // The "+queue" variants re-verify the protocol with the parked-slot
    // arbitration abstraction enabled (ProtocolConfig::Arbitration
    // queue / aged-priority share the same queuing discipline; only the
    // overflow service order differs, which the depth-1 slot cannot
    // distinguish).
    switch (set) {
      case McCheckSet::WriteUpdate:
        return {make("write-update", false, false, true, false),
                make("write-update+queue", false, false, true, false,
                     true)};
      case McCheckSet::AdaptiveHybrid:
        return {make("write-update", false, false, true, false),
                make("adaptive-hybrid", false, false, true, true)};
      case McCheckSet::MesiDele:
        break;
    }
    return {make("base", false, false, false, false),
            make("delegation", true, false, false, false),
            make("delegation+updates", true, true, false, false),
            make("base+queue", false, false, false, false, true),
            make("delegation+updates+queue", true, true, false, false,
                 true)};
}

LivenessReport
analyzeLiveness(const std::vector<NamedModelConfig> &configs,
                std::uint64_t maxStates)
{
    LivenessReport report;
    for (const NamedModelConfig &c : configs)
        analyzeConfig(c, maxStates, report);
    return report;
}

JsonValue
livenessPolicyJson(const std::string &policy, const LivenessReport &r)
{
    JsonValue doc = JsonValue::object();
    doc["policy"] = JsonValue(policy);
    JsonValue configs = JsonValue::array();
    for (const LivenessConfigStats &c : r.configs) {
        JsonValue e = JsonValue::object();
        e["name"] = JsonValue(c.name);
        e["states"] = JsonValue(c.states);
        e["edges"] = JsonValue(c.edges);
        e["progressEdges"] = JsonValue(c.progressEdges);
        e["quiescentStates"] = JsonValue(c.quiescentStates);
        e["completed"] = JsonValue(c.completed);
        configs.push(std::move(e));
    }
    doc["configs"] = std::move(configs);
    JsonValue findings = JsonValue::array();
    for (const LivenessFinding &f : r.findings) {
        JsonValue e = JsonValue::object();
        e["kind"] = JsonValue(f.kind);
        e["config"] = JsonValue(f.config);
        e["detail"] = JsonValue(f.detail);
        JsonValue w = JsonValue::object();
        JsonValue prefix = JsonValue::array();
        for (const std::string &h : f.witness.prefix)
            prefix.push(JsonValue(h));
        w["prefix"] = std::move(prefix);
        JsonValue cycle = JsonValue::array();
        for (const std::string &h : f.witness.cycle)
            cycle.push(JsonValue(h));
        w["cycle"] = std::move(cycle);
        JsonValue ops = JsonValue::array();
        for (const WitnessOp &op : f.witness.ops) {
            JsonValue o = JsonValue::object();
            o["node"] = JsonValue(std::uint64_t(op.node));
            o["op"] = JsonValue(op.isWrite ? "write" : "read");
            ops.push(std::move(o));
        }
        w["ops"] = std::move(ops);
        e["witness"] = std::move(w);
        findings.push(std::move(e));
    }
    doc["findings"] = std::move(findings);
    return doc;
}

} // namespace pcsim::verify
