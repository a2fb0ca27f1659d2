/**
 * @file
 * Generic explicit-state model checking engine (Section 2.5).
 *
 * The paper verified its mechanisms with Murphi: "we built a formal
 * model of our protocols and performed an exhaustive reachability
 * analysis of the model for a small configuration size". This engine
 * provides the same method: breadth-first exploration of a model's
 * state space with invariant checking at every state and deadlock
 * detection (a non-quiescent state with no enabled transition).
 *
 * A Model must provide:
 *   using State = ...;                    // movable
 *   State initial() const;
 *   void transitions(const State &,       // enumerate successors
 *                    std::vector<State> &out) const;
 *   void checkInvariants(const State &) const; // throw McError
 *   bool isQuiescent(const State &) const;     // done states may
 *                                              // have no successors
 *   std::string describe(const State &) const;
 *   std::uint64_t hash(const State &) const;
 *   bool equal(const State &, const State &) const;
 *
 * explore() returns the whole explored graph, which the liveness
 * lint analyses offline; modelCheck() reduces it to counts and turns
 * a deadlock into an McError.
 */

#ifndef PCSIM_MC_EXPLORER_HH
#define PCSIM_MC_EXPLORER_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/sim/flat_map.hh"

namespace pcsim
{

/** Raised by a model when an invariant fails. */
class McError : public std::runtime_error
{
  public:
    explicit McError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** Result of an exploration. */
struct McResult
{
    std::uint64_t statesExplored = 0;
    std::uint64_t transitionsTaken = 0;
    bool completed = false; ///< false if the state limit was hit
};

/** The state graph explore() discovers; ids index every array. */
template <typename State>
struct McGraph
{
    /** Discovered states in BFS order; id 0 is the initial state. A
     *  deque never moves a stored state when it grows. */
    std::deque<State> states;
    /** BFS tree parent (parent[0] == 0): a shortest path from the
     *  initial state to any id follows parents backwards. */
    std::vector<std::uint32_t> parent;
    std::vector<bool> quiescent;
    /** Non-quiescent states with no enabled transition, in discovery
     *  order. */
    std::vector<std::uint32_t> deadlocks;
    /** Successors of id are edges[edgeBegin[id], edgeBegin[id + 1]):
     *  deduplicated, in generation order, and empty for a state a
     *  bounded run never expanded. Like ids, offsets are 32-bit. */
    std::vector<std::uint32_t> edgeBegin;
    std::vector<std::uint32_t> edges;
    std::uint64_t transitionsTaken = 0;
    bool completed = false; ///< false if the state limit was hit

    std::span<const std::uint32_t>
    succ(std::uint32_t id) const
    {
        return {edges.data() + edgeBegin[id],
                edges.data() + edgeBegin[id + 1]};
    }
};

/**
 * Breadth-first exploration of @p model's reachable states, stopping
 * before the next expansion once more than @p max_states are known.
 * Each state is stored once; duplicates are found through a map from
 * the model's hash to the newest id with that hash, which chains to
 * the earlier ones. Deadlocks are recorded, not thrown.
 * @throws McError on an invariant violation, as soon as the violating
 *         state is generated.
 */
template <typename Model>
McGraph<typename Model::State>
explore(const Model &model, std::uint64_t max_states = 5'000'000)
{
    using State = typename Model::State;
    constexpr std::uint32_t none = ~std::uint32_t{0};

    McGraph<State> g;
    FlatMap<std::uint64_t, std::uint32_t> newest;
    std::vector<std::uint32_t> older; // same-hash chain, per id

    auto check = [&model](const State &st) {
        try {
            model.checkInvariants(st);
        } catch (const McError &e) {
            throw McError(std::string(e.what()) + "\nin state:\n" +
                          model.describe(st));
        }
    };

    // The id of @p s, stored as a child of @p from if it is new.
    auto idOf = [&](State &&s, std::uint32_t from) {
        const auto id = static_cast<std::uint32_t>(g.states.size());
        const auto [head, fresh] = newest.tryEmplace(model.hash(s), id);
        if (!fresh) {
            for (std::uint32_t t = *head; t != none; t = older[t])
                if (model.equal(s, g.states[t]))
                    return t;
        }
        older.push_back(fresh ? none : *head);
        *head = id;
        g.parent.push_back(from);
        g.quiescent.push_back(model.isQuiescent(s));
        g.states.push_back(std::move(s));
        return id;
    };

    State init = model.initial();
    check(init);
    idOf(std::move(init), 0);

    // BFS expands ids in discovery order, so no frontier is needed.
    std::vector<State> succ;
    std::uint32_t id = 0;
    for (; id < g.states.size() && g.states.size() <= max_states; ++id) {
        const State &s = g.states[id];
        g.edgeBegin.push_back(static_cast<std::uint32_t>(g.edges.size()));
        succ.clear();
        try {
            model.transitions(s, succ);
        } catch (const McError &e) {
            throw McError(std::string(e.what()) +
                          "\nwhile expanding state:\n" +
                          model.describe(s));
        }
        if (succ.empty() && !g.quiescent[id])
            g.deadlocks.push_back(id);
        for (State &n : succ) {
            ++g.transitionsTaken;
            check(n);
            const std::uint32_t nid = idOf(std::move(n), id);
            const auto out = g.edges.begin() + g.edgeBegin[id];
            if (std::find(out, g.edges.end(), nid) == g.edges.end())
                g.edges.push_back(nid);
        }
    }
    g.completed = id == g.states.size();
    g.edgeBegin.resize(g.states.size() + 1,
                       static_cast<std::uint32_t>(g.edges.size()));
    return g;
}

/**
 * Explore @p model and fail on a deadlock.
 * @throws McError on an invariant violation or, once the exploration
 *         ends, naming the earliest-discovered deadlocked state.
 */
template <typename Model>
McResult
modelCheck(const Model &model, std::uint64_t max_states = 5'000'000)
{
    const auto g = explore(model, max_states);
    if (!g.deadlocks.empty()) {
        const auto &s = g.states[g.deadlocks.front()];
        std::string msg = "deadlock: no enabled transition in "
                          "non-quiescent state\n" +
                          model.describe(s);
        // Models may offer focused diagnostics (pending ops,
        // per-channel occupancy) beyond the full state dump.
        if constexpr (requires { model.blockedSummary(s); })
            msg += "\n" + model.blockedSummary(s);
        throw McError(msg);
    }
    return {g.states.size(), g.transitionsTaken, g.completed};
}

} // namespace pcsim

#endif // PCSIM_MC_EXPLORER_HH
