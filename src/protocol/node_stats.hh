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

/** Counters one node accumulates during a run. */
struct NodeStats
{
    // CPU-visible accesses.
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t l2Hits = 0;

    // Misses classified by where they were served.
    std::uint64_t localMisses = 0;  ///< local home / local RAC
    std::uint64_t remoteMisses = 0; ///< needed the network
    std::uint64_t racHits = 0;      ///< subset of localMisses

    // Transaction shapes.
    std::uint64_t twoHopMisses = 0;
    std::uint64_t threeHopMisses = 0;

    // Retry behaviour.
    std::uint64_t nacksReceived = 0;
    std::uint64_t retries = 0;

    /** @name Retry-storm telemetry.
     *
     * Finer-grained robustness counters introduced with the
     * fault-injection layer. Deliberately NOT in the serialized
     * per-node results schema (PCSIM_NODE_STATS_FIELDS): they are
     * aggregated into an optional "retry" block in the results JSON
     * only when faults are active, keeping fault-free output
     * byte-identical to the goldens.
     */
    /// @{
    /** Retries caused by MSHR-conflict rescheduling (a subset of
     *  `retries`). */
    std::uint64_t mshrConflictRetries = 0;
    /** Directory-side writeback/undelegation re-handle retries under
     *  directory-cache pressure (a subset of `retries`). */
    std::uint64_t dirRehandleRetries = 0;
    /** Worst retry count any single line reached (merged by max). */
    std::uint64_t maxRetriesPerLine = 0;
    /** Peak NACKs sent within one Hub::nackStormWindow-tick window
     *  (merged by max). */
    std::uint64_t nackStormPeak = 0;
    /** Capped backoff exponent per retry (bucket k = attempts that
     *  waited retryBase << k, see src/protocol/backoff.hh). */
    Histogram backoffHist{16};

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
    /// @}

    /** @name Fairness telemetry (src/protocol/arbiter.hh).
     *
     * Like the retry-storm block, deliberately NOT in the serialized
     * per-node schema (PCSIM_NODE_STATS_FIELDS): these aggregate into
     * an optional "fairness" block in the results JSON only when
     * faults or a non-default arbitration mode are active, keeping
     * default-mode goldens byte-identical. The histogram itself is
     * sampled unconditionally — pure accounting, no control-flow or
     * RNG impact.
     */
    /// @{
    /** Miss-completion latency (issue -> fill), latencyBucketOf
     *  encoding. Merged bucket-wise; p50/p95/p99 are derived per node
     *  and reported as the worst node's value. */
    Histogram missLatencyHist{256};
    /** Longest any single request waited for one line, from first
     *  issue (or arbiter park) to service (merged by max). */
    std::uint64_t maxLineWaitTicks = 0;
    /** Deepest any per-line parked-request queue grew (merged by
     *  max; 0 under nack-retry arbitration). */
    std::uint64_t queueDepthPeak = 0;
    /// @}

    // Home-side activity.
    std::uint64_t homeRequests = 0;
    std::uint64_t nacksSent = 0;
    std::uint64_t interventionsSent = 0;
    std::uint64_t dirCacheHits = 0;
    std::uint64_t dirCacheMisses = 0;

    // Delegation (Section 2.3).
    std::uint64_t delegationsGranted = 0;  ///< as home
    std::uint64_t delegationsReceived = 0; ///< as producer
    std::uint64_t undelegationsCapacity = 0;
    std::uint64_t undelegationsFlush = 0;
    std::uint64_t undelegationsConflict = 0;
    std::uint64_t forwardedRequests = 0;
    std::uint64_t delegatedLocalOps = 0;

    // Speculative updates (Section 2.4).
    std::uint64_t delayedInterventions = 0;
    std::uint64_t updatesSent = 0;
    std::uint64_t updatesReceived = 0;
    std::uint64_t updatesConsumed = 0; ///< led to a local hit
    std::uint64_t updatesDropped = 0;  ///< RAC set pinned-full
    std::uint64_t extraWriteMisses = 0; ///< re-upgrade after early
                                        ///< delayed intervention

    // Writebacks.
    std::uint64_t writebacks = 0;

    /** @name Update-based policies (write-update / adaptive hybrid).
     *
     * Like the retry-storm block, deliberately NOT in the serialized
     * per-node schema (PCSIM_NODE_STATS_FIELDS): they aggregate into
     * an optional "policy" block in the results JSON only under an
     * update-based kind, keeping existing goldens byte-identical.
     */
    /// @{
    /** Write episodes opened at this home (UpdGrant issued). */
    std::uint64_t updateEpisodes = 0;
    /** Update pushes applied in place to a valid local copy. */
    std::uint64_t updatesApplied = 0;
    /** Adaptive hybrid: copies self-invalidated out of the update
     *  stream (UpdateDrop sent). */
    std::uint64_t adaptiveDrops = 0;
    /// @}

    void reset() { *this = NodeStats{}; }

    NodeStats &
    operator+=(const NodeStats &o)
    {
        reads += o.reads;
        writes += o.writes;
        l1Hits += o.l1Hits;
        l2Hits += o.l2Hits;
        localMisses += o.localMisses;
        remoteMisses += o.remoteMisses;
        racHits += o.racHits;
        twoHopMisses += o.twoHopMisses;
        threeHopMisses += o.threeHopMisses;
        nacksReceived += o.nacksReceived;
        retries += o.retries;
        mshrConflictRetries += o.mshrConflictRetries;
        dirRehandleRetries += o.dirRehandleRetries;
        maxRetriesPerLine = std::max(maxRetriesPerLine, o.maxRetriesPerLine);
        nackStormPeak = std::max(nackStormPeak, o.nackStormPeak);
        backoffHist.merge(o.backoffHist);
        missLatencyHist.merge(o.missLatencyHist);
        maxLineWaitTicks = std::max(maxLineWaitTicks, o.maxLineWaitTicks);
        queueDepthPeak = std::max(queueDepthPeak, o.queueDepthPeak);
        homeRequests += o.homeRequests;
        nacksSent += o.nacksSent;
        interventionsSent += o.interventionsSent;
        dirCacheHits += o.dirCacheHits;
        dirCacheMisses += o.dirCacheMisses;
        delegationsGranted += o.delegationsGranted;
        delegationsReceived += o.delegationsReceived;
        undelegationsCapacity += o.undelegationsCapacity;
        undelegationsFlush += o.undelegationsFlush;
        undelegationsConflict += o.undelegationsConflict;
        forwardedRequests += o.forwardedRequests;
        delegatedLocalOps += o.delegatedLocalOps;
        delayedInterventions += o.delayedInterventions;
        updatesSent += o.updatesSent;
        updatesReceived += o.updatesReceived;
        updatesConsumed += o.updatesConsumed;
        updatesDropped += o.updatesDropped;
        extraWriteMisses += o.extraWriteMisses;
        writebacks += o.writebacks;
        updateEpisodes += o.updateEpisodes;
        updatesApplied += o.updatesApplied;
        adaptiveDrops += o.adaptiveDrops;
        return *this;
    }
};

} // namespace pcsim

#endif // PCSIM_PROTOCOL_NODE_STATS_HH
