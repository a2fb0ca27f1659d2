/**
 * @file
 * Liveness lint over the src/mc abstract protocol model
 * (`pcsim lint --liveness`): fairness-constrained SCC analysis of the
 * full explored state graph, finding livelock lassos -- reachable
 * regions from which no run can ever complete another operation or
 * drain to quiescence -- and hard deadlocks, each with a replayable
 * witness.
 *
 * Progress measure: W(s) = sum of remaining read/write budgets plus
 * the number of occupied MSHRs. The model only decrements budgets
 * (stamping the MSHR in the same step) and an MSHR release completes
 * an operation, so W is monotone non-increasing along every edge and
 * an edge that strictly decreases it is exactly a completed read,
 * write, or (for the update policies) write episode.
 *
 * A state is *good* when some path from it reaches a progress edge or
 * a quiescent state; *bad* states are reachable non-good states. The
 * bad region is closed under successors and every edge inside it
 * preserves W, so any cycle through it is a non-progress cycle that
 * survives strong fairness: scheduling every enabled transition
 * infinitely often still completes nothing. This is what separates a
 * livelock from the protocol's benign NACK/retry loops -- a NACKed
 * requester that *can* eventually be serviced has a path to a
 * progress edge and never enters the bad region.
 *
 * Each finding carries a lasso witness: the BFS shortest prefix from
 * the initial state into the bad region plus a cycle within it, with
 * per-hop labels (message deliveries src->dst, sends, CPU op
 * injections and completions) derived by diffing adjacent states.
 * Where the lasso's hops include concrete CPU operations the witness
 * also lists them as per-node op streams, which `pcsim lint
 * --liveness --repro FILE` converts into a replayable PCTR trace.
 */

#ifndef PCSIM_VERIFY_LIVENESS_HH
#define PCSIM_VERIFY_LIVENESS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/mc/protocol_model.hh"
#include "src/sim/json.hh"
#include "src/verify/lint.hh"

namespace pcsim::verify
{

/** One named abstract-model configuration of a check-set family. */
struct NamedModelConfig
{
    std::string name;
    mc::ModelConfig cfg;
};

/** The model configurations a check set explores -- shared between
 *  the lint cross-check and the liveness pass so both verify the same
 *  family (3 nodes, write budget 2, read budget 1, one mechanism at a
 *  time). */
std::vector<NamedModelConfig> modelConfigsFor(McCheckSet set);

/** A concrete CPU operation appearing on a witness hop. */
struct WitnessOp
{
    std::uint8_t node = 0;
    bool isWrite = false;
};

/** A livelock lasso (or deadlock path: empty cycle). */
struct LivenessWitness
{
    /** Hop labels along the BFS shortest path from the initial state
     *  to the first bad (resp. deadlocked) state. */
    std::vector<std::string> prefix;
    /** Hop labels around the non-progress cycle (empty: deadlock). */
    std::vector<std::string> cycle;
    /** CPU operations injected along prefix + one cycle lap, in hop
     *  order -- the schedule a repro trace replays. */
    std::vector<WitnessOp> ops;
};

/** One liveness finding: "livelock" or "deadlock". */
struct LivenessFinding
{
    std::string kind;   ///< "livelock" | "deadlock"
    std::string config; ///< model configuration name
    std::string detail; ///< human-readable summary
    LivenessWitness witness;
};

/** Per-configuration exploration statistics. */
struct LivenessConfigStats
{
    std::string name;
    std::uint64_t states = 0;
    std::uint64_t edges = 0;
    std::uint64_t progressEdges = 0;
    std::uint64_t quiescentStates = 0;
    bool completed = false;
};

/** Outcome of the liveness pass over one configuration family. */
struct LivenessReport
{
    std::vector<LivenessConfigStats> configs;
    std::vector<LivenessFinding> findings;

    bool clean() const { return findings.empty(); }
};

/** Explore every configuration in @p configs and analyze its state
 *  graph for livelocks and deadlocks. At most one finding (the one
 *  with the shortest prefix) is reported per configuration -- a bad
 *  region yields one witness, not one per state. */
LivenessReport analyzeLiveness(const std::vector<NamedModelConfig> &configs,
                               std::uint64_t maxStates = 5'000'000);

/** Per-policy JSON fragment ({"policy": name, configs, findings}). */
JsonValue livenessPolicyJson(const std::string &policy,
                             const LivenessReport &r);

} // namespace pcsim::verify

#endif // PCSIM_VERIFY_LIVENESS_HH
