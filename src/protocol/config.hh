/**
 * @file
 * Protocol / node configuration knobs (Table 1 defaults).
 */

#ifndef PCSIM_PROTOCOL_CONFIG_HH
#define PCSIM_PROTOCOL_CONFIG_HH

#include <cstdint>
#include <string>

#include "src/cache/l1_cache.hh"
#include "src/core/delegate_cache.hh"
#include "src/core/pc_detector.hh"
#include "src/core/rac.hh"
#include "src/mem/dram.hh"
#include "src/mem/directory.hh"
#include "src/net/faults.hh"
#include "src/net/network.hh"
#include "src/sim/types.hh"

namespace pcsim
{

/**
 * Which coherence policy the protocol stack runs (the key into the
 * CoherencePolicy registry, src/protocol/policy.hh).
 *
 * The first three kinds are the original hard-wired stack: the base
 * SGI-Origin-style MESI directory, plus the HPCA'07 delegation and
 * delegation+speculative-update mechanisms. WriteUpdate is a
 * Dragon-style write-update protocol (stores broadcast new data to
 * sharers instead of invalidating them); AdaptiveHybrid is the
 * per-line competitive hybrid that starts update-based and lets each
 * consumer self-invalidate out of the update stream after
 * `adaptiveThreshold` unread updates.
 */
enum class ProtocolKind : std::uint8_t
{
    MesiDir,           ///< base directory write-invalidate
    Delegation,        ///< + HPCA'07 directory delegation
    DelegationUpdates, ///< + speculative update pushes
    WriteUpdate,       ///< Dragon-style write-update
    AdaptiveHybrid,    ///< per-line adaptive update/invalidate
    NumProtocolKinds
};

/** Display name of @p k ("mesi-dir", "delegation", ...). */
const char *protocolKindName(ProtocolKind k);

/** Parse a kind name (the protocolKindName spellings, case-sensitive);
 *  returns false for unknown names. */
bool protocolKindFromName(const std::string &name, ProtocolKind &out);

/**
 * How the home-side engines arbitrate requests that arrive while a
 * line is busy (see DESIGN.md "Arbitration & fairness").
 *
 * NackRetry is the paper's behaviour: the home NACKs and the
 * requester retries after randomized backoff — simple, but with no
 * fairness guarantee under contention. Queue parks busy-line requests
 * in a bounded per-line FIFO at the home and drains them oldest-first
 * when the episode completes; a full queue falls back to NACK so the
 * lossless-channel contract is preserved. AgedPriority is Queue with
 * the drain order keyed on the request's carried retry count
 * (Message::retries), so the longest-suffering requester is serviced
 * first when the queue has been overflowing back into NACK mode.
 */
enum class Arbitration : std::uint8_t
{
    NackRetry,    ///< NACK + randomized-backoff retry (default)
    Queue,        ///< bounded per-line FIFO at the home
    AgedPriority, ///< FIFO drained by retry-count age
    NumArbitrations
};

/** Display name of @p a ("nack-retry", "queue", "aged-priority"). */
const char *arbitrationName(Arbitration a);

/** Parse an arbitration name (the arbitrationName spellings,
 *  case-sensitive); returns false for unknown names. */
bool arbitrationFromName(const std::string &name, Arbitration &out);

/** Everything a node and its controllers need to know. */
struct ProtocolConfig
{
    /** Largest machine the protocol stack is validated for. The
     *  SharerSet representation itself scales further, but NodeId and
     *  the workload suite are only exercised to this size. */
    static constexpr unsigned maxNodes = 4096;

    unsigned numNodes = 16;
    /** Coarse sharing-vector granularity: log2 of the nodes covered
     *  by one directory sharer bit (0 = exact, one bit per node).
     *  Nonzero values trade directory width for spurious
     *  invalidations, SGI-Origin style. */
    unsigned sharerGranularityLog2 = 0;
    std::uint32_t lineBytes = 128; ///< coherence granularity (L2 line)

    // Processor-side hierarchy (Table 1).
    L1Config l1;
    std::size_t l2SizeBytes = 2 * 1024 * 1024;
    std::size_t l2Ways = 4;
    /** Exact L2 set count override (0 = derive from size); lets
     *  Figure 8 model a 1.04 MB L2 with a non-power-of-two set
     *  count. */
    std::size_t l2SetsOverride = 0;
    Tick l2HitLatency = 10;

    // Hub timing.
    Tick hubLatency = 8;  ///< directory/hub processing per message
    Tick busLatency = 20; ///< processor <-> hub transfer

    // Memory.
    DramConfig dram;
    DirectoryCacheConfig dirCache;

    /**
     * @name NACK retry behaviour (src/protocol/backoff.hh).
     *
     * Attempt k backs off `retryBase << min(k, retryExpCap)` plus a
     * uniform jitter in [0, retryJitter]. The jitter is what breaks
     * retry convoys: after a NACK storm (e.g. many writers colliding
     * on one home line, or a fault window shrinking the directory
     * cache), requesters with identical timing would otherwise retry
     * in lockstep and collide forever. retryJitter = 0 is therefore
     * rejected by validate() at 64+ nodes, where enough requesters
     * can align for the convoy to become a livelock in practice; at
     * smaller machines it is permitted for controlled experiments but
     * is a known hazard.
     */
    /// @{
    Tick retryBase = 64;
    Tick retryJitter = 64;
    /** Exponential-backoff cap: 0 (default) keeps the paper's flat
     *  randomized backoff; fault-stress configs raise it so repeated
     *  retries spread out (capped at `retryBase << retryExpCap`). */
    std::uint32_t retryExpCap = 0;
    std::uint32_t maxRetries = 100000; ///< forward-progress guard
    /// @}

    /**
     * @name Busy-line arbitration (src/protocol/arbiter.hh).
     *
     * Default NackRetry keeps every existing result byte-identical.
     * Queue / AgedPriority park up to arbQueueDepth requests per busy
     * line at the home instead of NACKing; overflow falls back to
     * NACK (AgedPriority then services the highest Message::retries
     * first on drain).
     */
    /// @{
    Arbitration arbitration = Arbitration::NackRetry;
    std::uint32_t arbQueueDepth = 32;
    /** True when a parked-request arbiter is in play (anything other
     *  than the default NACK-and-retry discipline). */
    bool arbitrationActive() const
    {
        return arbitration != Arbitration::NackRetry;
    }
    /// @}

    /** Deterministic fault injection (off by default; see
     *  src/net/faults.hh and `pcsim faults`). */
    FaultConfig faults;

    // MSHRs (Table 1: max 16 outstanding L2 misses).
    std::size_t mshrs = 16;

    // --- coherence policy ---------------------------------------

    /** The coherence policy. The accessors below keep which kinds
     *  delegate and which push updates in one place. */
    ProtocolKind kind = ProtocolKind::MesiDir;

    /** HPCA'07 directory delegation is active (Section 2.3). */
    bool delegationEnabled() const
    {
        return kind == ProtocolKind::Delegation ||
               kind == ProtocolKind::DelegationUpdates;
    }
    /** Speculative update pushes are active (Section 2.4). */
    bool updatesEnabled() const
    {
        return kind == ProtocolKind::DelegationUpdates;
    }
    /** Stores propagate by updating sharers instead of invalidating
     *  them (WriteUpdate and AdaptiveHybrid). */
    bool updateBased() const
    {
        return kind == ProtocolKind::WriteUpdate ||
               kind == ProtocolKind::AdaptiveHybrid;
    }
    /** Some node can send an Update message: updatesEnabled()'s
     *  speculative pushes or an updateBased() policy's store fan-out.
     *  Invalidate-only kinds never deliver one. */
    bool sendsUpdates() const { return updatesEnabled() || updateBased(); }
    /** Per-line competitive update/invalidate adaptation is active. */
    bool adaptive() const
    {
        return kind == ProtocolKind::AdaptiveHybrid;
    }

    /** AdaptiveHybrid: consecutive updates a consumer absorbs without
     *  reading the line before it self-invalidates out of the update
     *  stream (the classic competitive-snooping threshold). */
    std::uint32_t adaptiveThreshold = 4;

    // --- HPCA'07 mechanisms -------------------------------------
    bool racEnabled = false;
    RacConfig rac;

    DelegateCacheConfig delegate;

    /** Delayed intervention interval (Section 2.4.1; Figure 9 sweeps
     *  5 .. 500M; maxTick = "infinite" = never intervene). */
    Tick interventionDelay = 50;

    PcDetectorConfig detector;

    /** Run the coherence/SC invariant checker (Section 2.5). */
    bool checkerEnabled = true;

    /** Cross-check every controller transition against the
     *  declarative spec (src/verify). On by default in tests; opt-in
     *  for experiments (`pcsim run --conformance`). Off keeps the
     *  hook compiled in but fully disabled, preserving byte-identical
     *  results. */
    bool conformanceEnabled = false;

    /**
     * Sanity-check the configuration (node count fits the
     * representation, power-of-two line size, nonzero structure
     * sizes, mechanism dependencies).
     * @return "" when valid, else a human-readable description of the
     *         first problem found.
     */
    std::string validateError() const;

    /** validateError(), but fatal() with the message on failure.
     *  System construction calls this; CLIs should prefer
     *  validateError() for friendlier reporting. */
    void validate() const;
};

} // namespace pcsim

#endif // PCSIM_PROTOCOL_CONFIG_HH
