/**
 * @file
 * Per-node statistics collected by the controllers.
 */

#ifndef PCSIM_PROTOCOL_NODE_STATS_HH
#define PCSIM_PROTOCOL_NODE_STATS_HH

#include <algorithm>
#include <bit>
#include <cstdint>

#include "src/sim/stats.hh"

namespace pcsim
{

/** @name Miss-latency histogram encoding.
 *
 * HDR-style log-linear buckets: four linear sub-buckets per power of
 * two, so every bucket's floor is within 25% of any value it holds —
 * percentile readouts stay accurate across the full tick range
 * without per-sample storage. Bucket 0..3 hold the exact values 0..3;
 * bucket 4*(o-1)+s (o >= 2) holds [2^o + s*2^(o-2), 2^o + (s+1)*2^(o-2)).
 */
/// @{
/** Bucket index for latency value @p v. */
inline std::size_t
latencyBucketOf(std::uint64_t v)
{
    if (v < 4)
        return static_cast<std::size_t>(v);
    const unsigned o = std::bit_width(v) - 1; // floor(log2 v), >= 2
    const std::uint64_t s = (v - (std::uint64_t(1) << o)) >> (o - 2);
    return 4u * (o - 1u) + static_cast<std::size_t>(s);
}

/** Smallest latency value that lands in bucket @p b (the readout
 *  value percentiles report). */
inline std::uint64_t
latencyBucketFloor(std::size_t b)
{
    if (b < 4)
        return b;
    const unsigned o = static_cast<unsigned>(b / 4 + 1);
    const std::uint64_t s = b % 4;
    return (std::uint64_t(1) << o) + (s << (o - 2));
}

/** The @p p percentile (0 < p <= 1) of a latencyBucketOf-encoded
 *  histogram, reported as the containing bucket's floor; 0 when the
 *  histogram is empty. */
inline std::uint64_t
latencyPercentile(const Histogram &h, double p)
{
    const std::uint64_t total = h.total();
    if (total == 0)
        return 0;
    std::uint64_t rank = static_cast<std::uint64_t>(p * double(total));
    if (rank < 1)
        rank = 1;
    if (rank > total)
        rank = total;
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < h.numBuckets(); ++i) {
        cum += h.bucket(i);
        if (cum >= rank)
            return latencyBucketFloor(i);
    }
    return latencyBucketFloor(h.numBuckets() - 1);
}
/// @}

/** How a run total (NodeStats::operator+=) combines one counter over
 *  the nodes. */
enum class CounterMerge : std::uint8_t
{
    Sum,
    Max,
};

/** The results-document block that carries a counter
 *  (src/runner/results.cc). `nodes` is in every document. The others
 *  appear only when they can be nonzero, which keeps default-mode
 *  documents byte-identical to the goldens: `retry` in fault-injected
 *  runs, `fairness` there or under a non-default arbitration mode, and
 *  `policy` under an update-based kind. */
enum class CounterBlock : std::uint8_t
{
    Nodes,
    Retry,
    Fairness,
    Policy,
};

/**
 * Every scalar NodeStats counter, named once, in declaration order:
 * X(name, merge, block). It declares the members and fills
 * nodeCounters, the table that operator+=, the results JSON and CSV
 * and the per-node golden documents walk, so adding a counter is one
 * line here.
 */
#define PCSIM_NODE_COUNTERS(X)                                            \
    /* CPU-visible accesses. */                                           \
    X(reads, Sum, Nodes)                                                  \
    X(writes, Sum, Nodes)                                                 \
    X(l1Hits, Sum, Nodes)                                                 \
    X(l2Hits, Sum, Nodes)                                                 \
    /* Misses by where they were served: localMisses at the local home    \
       or RAC, remoteMisses over the network. racHits is a subset of      \
       localMisses. */                                                    \
    X(localMisses, Sum, Nodes)                                            \
    X(remoteMisses, Sum, Nodes)                                           \
    X(racHits, Sum, Nodes)                                                \
    /* Transaction shapes. */                                             \
    X(twoHopMisses, Sum, Nodes)                                           \
    X(threeHopMisses, Sum, Nodes)                                         \
    /* Retry behaviour. */                                                \
    X(nacksReceived, Sum, Nodes)                                          \
    X(retries, Sum, Nodes)                                                \
    /* Retry-storm telemetry. Two subsets of retries: MSHR-conflict       \
       reschedules, and directory-side writeback/undelegation             \
       re-handles under directory-cache pressure. Then the worst retry    \
       count any single line reached (see noteRetryAttempt) and the       \
       peak NACKs sent within one Hub::nackStormWindow-tick window. */    \
    X(mshrConflictRetries, Sum, Retry)                                    \
    X(dirRehandleRetries, Sum, Retry)                                     \
    X(maxRetriesPerLine, Max, Retry)                                      \
    X(nackStormPeak, Max, Retry)                                          \
    /* Fairness telemetry (src/protocol/arbiter.hh): the longest any      \
       single request waited for one line, from first issue (or arbiter   \
       park) to service, and the deepest any per-line parked-request      \
       queue grew (0 under nack-retry arbitration). */                    \
    X(maxLineWaitTicks, Max, Fairness)                                    \
    X(queueDepthPeak, Max, Fairness)                                      \
    /* Home-side activity. */                                             \
    X(homeRequests, Sum, Nodes)                                           \
    X(nacksSent, Sum, Nodes)                                              \
    X(interventionsSent, Sum, Nodes)                                      \
    X(dirCacheHits, Sum, Nodes)                                           \
    X(dirCacheMisses, Sum, Nodes)                                         \
    /* Delegation (Section 2.3): granted as home, received as             \
       producer. */                                                       \
    X(delegationsGranted, Sum, Nodes)                                     \
    X(delegationsReceived, Sum, Nodes)                                    \
    X(undelegationsCapacity, Sum, Nodes)                                  \
    X(undelegationsFlush, Sum, Nodes)                                     \
    X(undelegationsConflict, Sum, Nodes)                                  \
    X(forwardedRequests, Sum, Nodes)                                      \
    X(delegatedLocalOps, Sum, Nodes)                                      \
    /* Speculative updates (Section 2.4). updatesConsumed led to a        \
       local hit; updatesDropped found the RAC set pinned-full;           \
       extraWriteMisses re-upgraded after an early delayed                \
       intervention. */                                                   \
    X(delayedInterventions, Sum, Nodes)                                   \
    X(updatesSent, Sum, Nodes)                                            \
    X(updatesReceived, Sum, Nodes)                                        \
    X(updatesConsumed, Sum, Nodes)                                        \
    X(updatesDropped, Sum, Nodes)                                         \
    X(extraWriteMisses, Sum, Nodes)                                       \
    /* Writebacks. */                                                     \
    X(writebacks, Sum, Nodes)                                             \
    /* Update-based policies (write-update / adaptive hybrid): write      \
       episodes opened at this home (UpdGrant issued), update pushes      \
       applied in place to a valid local copy, and adaptive-hybrid        \
       copies self-invalidated out of the update stream (UpdateDrop       \
       sent). */                                                          \
    X(updateEpisodes, Sum, Policy)                                        \
    X(updatesApplied, Sum, Policy)                                        \
    X(adaptiveDrops, Sum, Policy)

/** Counters one node accumulates during a run. */
struct NodeStats
{
#define PCSIM_MEMBER(name, merge, block) std::uint64_t name = 0;
    PCSIM_NODE_COUNTERS(PCSIM_MEMBER)
#undef PCSIM_MEMBER

    /** Capped backoff exponent per retry (bucket k = attempts that
     *  waited retryBase << k, see src/protocol/backoff.hh); in the
     *  `retry` block. */
    Histogram backoffHist{16};
    /** Miss-completion latency (issue -> fill), latencyBucketOf
     *  encoding, in the `fairness` block. Sampled unconditionally:
     *  pure accounting, no control-flow or RNG impact. Merged
     *  bucket-wise; p50/p95/p99 are derived per node and reported as
     *  the worst node's value. */
    Histogram missLatencyHist{256};

    /** Record one observation of a line's 0-based retry-attempt index
     *  for `maxRetriesPerLine`. Every site that touches the counter
     *  funnels through here so the semantics cannot drift: attempt 0
     *  is the first retry, so a line NACKed once and then satisfied
     *  reports max 0. */
    void
    noteRetryAttempt(std::uint64_t attempt)
    {
        maxRetriesPerLine = std::max(maxRetriesPerLine, attempt);
    }

    void reset() { *this = NodeStats{}; }

    NodeStats &operator+=(const NodeStats &o);
};

/** One scalar NodeStats counter: its name, member, merge rule and
 *  results-document block. */
struct NodeCounter
{
    const char *name;
    std::uint64_t NodeStats::*field;
    CounterMerge merge;
    CounterBlock block;
};

/** Every scalar NodeStats counter, in declaration order. */
inline constexpr NodeCounter nodeCounters[] = {
#define PCSIM_ROW(name, merge, block)                                     \
    {#name, &NodeStats::name, CounterMerge::merge, CounterBlock::block},
    PCSIM_NODE_COUNTERS(PCSIM_ROW)
#undef PCSIM_ROW
};

#undef PCSIM_NODE_COUNTERS

inline NodeStats &
NodeStats::operator+=(const NodeStats &o)
{
    for (const NodeCounter &c : nodeCounters) {
        std::uint64_t &v = this->*c.field;
        v = c.merge == CounterMerge::Max ? std::max(v, o.*c.field)
                                         : v + o.*c.field;
    }
    backoffHist.merge(o.backoffHist);
    missLatencyHist.merge(o.missLatencyHist);
    return *this;
}

} // namespace pcsim

#endif // PCSIM_PROTOCOL_NODE_STATS_HH
