/**
 * @file
 * Message-dependency-graph (MDG) analysis over a declarative
 * transition spec (`pcsim lint --mdg`).
 *
 * The pass derives, purely from the spec's allowed-sends sets, a
 * type-level dependency graph: an edge t -> u means some rule that
 * consumes a delivered message of type t is allowed to emit a message
 * of type u while handling it. Consuming t therefore may require
 * channel space for u, so a cycle among types that are not guaranteed
 * consumable is a potential message-dependence deadlock in a bounded-
 * channel network (the classic request/response channel-class
 * argument, checked here mechanically instead of by convention).
 *
 * Sink-ability: a type is a *sink* when every rule that can consume it
 * emits only sinks -- by fixpoint, delivery of a sink never needs
 * unbounded channel space downstream, so responses and pure acks fall
 * out as consumable without being special-cased. Two edge families
 * are exempt from cycle detection because a different mechanism bounds
 * them (both are still reported in the stats):
 *  - requester-bound: a cache-controller rule emitting a request; the
 *    requester's MSHR caps how many such requests are ever in flight,
 *  - NACK-protected: a home/producer rule forwarding a request while
 *    also allowed to NACK it; under pressure the NACK path sheds the
 *    dependency. A request->request forward with *no* NACK in its
 *    allowed-sends set has no shed path and is flagged.
 *
 * Finding classes:
 *  - "channel-cycle":       a dependency cycle among non-sink types
 *                           (after exemptions),
 *  - "unprotected-forward": a home/producer rule forwards a request
 *                           without a NACK escape in its sends set,
 *  - "undeliverable-send":  a type some rule may emit but no rule of
 *                           any controller can consume,
 *  - "channel-capacity":    one rule may emit more same-class messages
 *                           than a bounded channel (src/mc chanDepth)
 *                           can absorb in the worst case.
 *
 * The pass is spec-driven, so every policy registered in
 * src/protocol/policy.* gets it with no per-policy code.
 */

#ifndef PCSIM_VERIFY_MDG_HH
#define PCSIM_VERIFY_MDG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/json.hh"
#include "src/verify/lint.hh"
#include "src/verify/spec.hh"

namespace pcsim::verify
{

/** One dependency edge with its provenance rule. */
struct MdgEdge
{
    MsgType from;       ///< consumed (delivered) type
    MsgType to;         ///< type the handling rule may emit
    Ctrl ctrl;          ///< controller of the provenance rule
    StateId state;      ///< state of the provenance rule
    /** Why the edge is exempt from cycle detection (nullptr when it
     *  participates): "requester-bound" or "nack-protected". */
    const char *exempt = nullptr;
};

/** Outcome of the MDG pass for one spec. */
struct MdgReport
{
    std::vector<MsgType> messages; ///< types used by the spec, sorted
    std::vector<MdgEdge> edges;    ///< full graph, rule order
    std::vector<MsgType> sinks;    ///< guaranteed-consumable types
    /** Types the src/mc bounded-channel model does not carry (its
     *  channel-capacity audit is advisory for these). */
    std::vector<MsgType> unmodeled;
    std::uint64_t reissueEdges = 0;       ///< requester-bound exempts
    std::uint64_t nackProtectedEdges = 0; ///< NACK-protected exempts
    std::vector<LintFinding> findings;

    bool clean() const { return findings.empty(); }
};

/** Run the MDG pass over @p spec. */
MdgReport analyzeMdg(const TransitionSpec &spec);

/** Per-policy JSON fragment ({"policy": name, stats..., findings}). */
JsonValue mdgPolicyJson(const std::string &policy,
                        const TransitionSpec &spec, const MdgReport &r);

} // namespace pcsim::verify

#endif // PCSIM_VERIFY_MDG_HH
