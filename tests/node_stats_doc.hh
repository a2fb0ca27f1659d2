/**
 * @file
 * Per-node statistics documents for golden tests: every scalar
 * NodeStats counter of every node of a run, plus its cycle count, in
 * a diffable JSON layout with one line per node.
 */

#ifndef PCSIM_TESTS_NODE_STATS_DOC_HH
#define PCSIM_TESTS_NODE_STATS_DOC_HH

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "src/sim/json.hh"
#include "src/system/system.hh"

namespace pcsim::golden
{

/** Every scalar NodeStats counter, serialized or not. */
#define PCSIM_NODE_STATS_FIELDS(X)                                        \
    X(reads) X(writes) X(l1Hits) X(l2Hits) X(localMisses)                 \
    X(remoteMisses) X(racHits) X(twoHopMisses) X(threeHopMisses)          \
    X(nacksReceived) X(retries) X(mshrConflictRetries)                    \
    X(dirRehandleRetries) X(maxRetriesPerLine) X(nackStormPeak)           \
    X(maxLineWaitTicks) X(queueDepthPeak) X(homeRequests) X(nacksSent)    \
    X(interventionsSent) X(dirCacheHits) X(dirCacheMisses)                \
    X(delegationsGranted) X(delegationsReceived)                          \
    X(undelegationsCapacity) X(undelegationsFlush)                        \
    X(undelegationsConflict) X(forwardedRequests) X(delegatedLocalOps)    \
    X(delayedInterventions) X(updatesSent) X(updatesReceived)             \
    X(updatesConsumed) X(updatesDropped) X(extraWriteMisses)              \
    X(writebacks) X(updateEpisodes) X(updatesApplied) X(adaptiveDrops)

inline const std::vector<std::string> &
fieldNames()
{
    static const std::vector<std::string> names = {
#define X(f) #f,
        PCSIM_NODE_STATS_FIELDS(X)
#undef X
    };
    return names;
}

inline std::vector<std::uint64_t>
fieldValues(const NodeStats &s)
{
    return {
#define X(f) static_cast<std::uint64_t>(s.f),
        PCSIM_NODE_STATS_FIELDS(X)
#undef X
    };
}

/** What a run leaves behind: cycles plus every node's counters. */
struct Observed
{
    std::uint64_t cycles = 0;
    std::vector<std::vector<std::uint64_t>> nodes;
};

/** Cycles of @p r and the counters of every node of @p sys. */
inline Observed
observe(System &sys, const RunResult &r)
{
    Observed o;
    o.cycles = r.cycles;
    for (unsigned n = 0; n < sys.numNodes(); ++n)
        o.nodes.push_back(fieldValues(sys.hub(n).stats()));
    return o;
}

/** The document for runs @p obs named @p names: a field list, then
 *  one case per run with one line per node. */
inline std::string
nodeStatsDoc(const std::vector<std::string> &names,
             const std::vector<Observed> &obs)
{
    std::ostringstream out;
    out << "{\n  \"fields\": [";
    for (std::size_t i = 0; i < fieldNames().size(); ++i)
        out << (i ? ", " : "") << '"' << fieldNames()[i] << '"';
    out << "],\n  \"cases\": [\n";
    for (std::size_t c = 0; c < names.size(); ++c) {
        out << "    {\"name\": \"" << JsonValue::escape(names[c])
            << "\", \"cycles\": " << obs[c].cycles << ", \"nodes\": [\n";
        for (std::size_t n = 0; n < obs[c].nodes.size(); ++n) {
            out << "      [";
            for (std::size_t f = 0; f < obs[c].nodes[n].size(); ++f)
                out << (f ? "," : "") << obs[c].nodes[n][f];
            out << (n + 1 < obs[c].nodes.size() ? "],\n" : "]\n");
        }
        out << (c + 1 < names.size() ? "    ]},\n" : "    ]}\n");
    }
    out << "  ]\n}\n";
    return out.str();
}

} // namespace pcsim::golden

#endif // PCSIM_TESTS_NODE_STATS_DOC_HH
