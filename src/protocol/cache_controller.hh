/**
 * @file
 * Processor-side coherence agent.
 *
 * Owns the node's L1D and L2 arrays and the MSHRs. Responsibilities:
 *  - service CPU loads/stores (hits locally, misses via the protocol),
 *  - route requests: producer table (line delegated to this node) ->
 *    consumer table hint (delegated elsewhere) -> default home,
 *  - collect data replies and invalidation acks (Origin-style ack
 *    collection at the requester),
 *  - retry on NACKs with randomized backoff; drop stale consumer-table
 *    hints on NackNotHome,
 *  - respond to interventions (Inval / downgrade / transfer),
 *  - victim-cache remote lines into the RAC and service read misses
 *    from it; absorb speculative UPDATE pushes (Section 2.4.3).
 */

#ifndef PCSIM_PROTOCOL_CACHE_CONTROLLER_HH
#define PCSIM_PROTOCOL_CACHE_CONTROLLER_HH

#include <memory>

#include "src/cache/access_callback.hh"
#include "src/cache/cache_array.hh"
#include "src/cache/l1_cache.hh"
#include "src/cache/line_state.hh"
#include "src/cache/mshr.hh"
#include "src/net/message.hh"
#include "src/protocol/config.hh"
#include "src/sim/flat_map.hh"
#include "src/sim/random.hh"
#include "src/sim/types.hh"

namespace pcsim
{

class Hub;

/** An L2 line: MESI state plus the data-version abstraction. */
struct L2Entry
{
    LineState state = LineState::Invalid;
    Version version = 0;
    /** Update-based policies: pushes absorbed since the last local
     *  read (the adaptive hybrid's self-invalidation counter). */
    std::uint32_t staleUpdates = 0;
};

/** The processor-side controller. */
class CacheController
{
  public:
    CacheController(Hub &hub, Rng rng);

    /** CPU access entry point (called via Hub::cpuAccess).
     *  @p conflict_retries counts MSHR-conflict reschedules of this
     *  same access (internal; feeds the maxRetries guard). */
    void access(bool is_write, Addr addr, AccessCallback done,
                unsigned conflict_retries = 0);

    /** @name Network-message entry points (dispatched by the Hub). */
    /// @{
    void handleResponse(const Message &msg);
    void handleIntervention(const Message &msg);
    void handleUpdate(const Message &msg);
    void handleHomeHint(const Message &msg);
    /// @}

    /**
     * Locally downgrade an M/E line to S (delayed or on-demand
     * intervention issued by the ProducerController).
     * @return the line's current version; if the line is no longer
     *         present, returns @p fallback.
     */
    Version localDowngrade(Addr line, Version fallback);

    /** Is a transaction outstanding for @p line? */
    bool hasMshr(Addr line) { return _mshrs.find(line) != nullptr; }

    /** Transaction id of the outstanding MSHR (0 if none). */
    std::uint64_t
    mshrTxnId(Addr line)
    {
        Mshr *m = _mshrs.find(line);
        return m ? m->txnId : 0;
    }

    /** L2 state probe (checker / ProducerController). */
    LineState l2State(Addr line, Version &version) const;

    /** @name Barrier-spin fast-forward (src/protocol/spin_watch.hh). */
    /// @{
    Tick l1HitLatency() const { return _l1.hitLatency(); }

    /** Would a read of @p line now hit the L1 and return @p v? A
     *  probe: no LRU or counter changes. */
    bool readHitReturns(Addr line, Version v) const;

    /** Account @p n L1 read hits on @p line that a parked spinner
     *  skipped, exactly as access() would have: reads, l1Hits, the
     *  update-stream reset, checker loads and conformance counts. The
     *  L1/L2 recency bumps are left out: nothing fills a parked
     *  node's caches before its next real poll touches the line. */
    void creditReadHits(Addr line, std::uint64_t n);
    /// @}

    /** @name Footprint probes (CacheArray::materializedSets). */
    /// @{
    std::size_t l1MaterializedSets() const
    {
        return _l1.materializedSets();
    }
    std::size_t l2MaterializedSets() const
    {
        return _l2.materializedSets();
    }
    /** Tombstone table slots allocated (0 until the first). */
    std::size_t tombstoneSlots() const { return _tombstones.capacity(); }
    /// @}

    /** Number of outstanding transactions (drain detection). */
    std::size_t outstanding() { return _mshrs.size(); }

    /** @name Policy support surface (src/protocol/policy.hh). */
    /// @{
    Hub &hub() { return _hub; }

    /** Drop a valid local copy (L1 range + L2), as the adaptive
     *  hybrid's consumer self-invalidation does. */
    void dropLine(Addr line);
    /// @}

  private:
    void missPath(bool is_write, Addr addr, Addr line,
                  AccessCallback done, unsigned conflict_retries);
    /** Pick the target (producer table / consumer hint / home) and
     *  send the MSHR's request. */
    void sendRequest(Mshr &m);
    void retry(Addr line);
    void maybeComplete(Mshr &m);
    void complete(Mshr &m);

    /** Fill @p line into the L2, evicting (writeback / victim-cache)
     *  as needed. Returns the entry. */
    L2Entry *l2Fill(Addr line, LineState state, Version version);
    void evictVictim(Addr victim_line, L2Entry &victim);

    /** Perform a store on a writable resident line. */
    void performStore(Addr line, L2Entry &entry);

    /** Record that @p line was invalidated at epoch @p version. */
    void recordTombstone(Addr line, Version version);
    /** Is a message carrying @p version for @p line stale? */
    bool staleByTombstone(Addr line, Version version) const;

    Hub &_hub;
    const ProtocolConfig &_cfg;
    L1Cache _l1;
    CacheArray<L2Entry> _l2;
    MshrTable _mshrs;
    Rng _rng;

    /**
     * Recently-invalidated-lines buffer: a speculative UPDATE that was
     * already in flight when its line was undelegated can arrive
     * AFTER the next writer's invalidation (no point-to-point
     * ordering between the two sources). Each Inval records the
     * superseded epoch here; updates at or below it are dropped.
     * Modeled as a small FIFO, as the hardware would build it: a
     * fixed ring of the recorded lines, oldest evicted first. Only a
     * policy that sends updates (ProtocolConfig::sendsUpdates)
     * records any; the others never allocate the table.
     */
    static constexpr std::size_t tombstoneCapacity = 128;
    FlatMap<Addr, Version> _tombstones;
    /** The recorded lines, oldest at _tombstoneHead once full.
     *  Allocated by the first tombstone (many nodes never record one)
     *  and written before read, so never initialized. */
    std::unique_ptr<Addr[]> _tombstoneRing;
    std::size_t _tombstoneHead = 0;

    std::uint64_t _nextTxnId = 0;
};

} // namespace pcsim

#endif // PCSIM_PROTOCOL_CACHE_CONTROLLER_HH
