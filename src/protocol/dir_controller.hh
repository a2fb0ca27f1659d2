/**
 * @file
 * Home-side directory controller.
 *
 * Implements the base SGI-Origin-style write-invalidate protocol:
 *  - 2-hop reads/writes when the home has the data,
 *  - 3-hop interventions when a third node owns the line,
 *  - invalidation fan-out with ack collection at the requester,
 *  - BUSY transient states resolved by NACK-and-retry (Section 2.3.4),
 *  - writeback races resolved via point-to-point message ordering.
 *
 * Plus the HPCA'07 home-side delegation duties:
 *  - the producer-consumer detector lives in the directory cache,
 *  - on detection, ownership of the directory entry is delegated to
 *    the producer (DELE state, DELEGATE message),
 *  - while DELE, requests are forwarded to the delegate and the
 *    requester is told the acting home (HomeHint),
 *  - UNDELE restores normal operation and services any pending
 *    exclusive request that triggered the undelegation.
 */

#ifndef PCSIM_PROTOCOL_DIR_CONTROLLER_HH
#define PCSIM_PROTOCOL_DIR_CONTROLLER_HH

#include <unordered_map>

#include "src/mem/directory.hh"
#include "src/mem/dram.hh"
#include "src/net/message.hh"
#include "src/protocol/arbiter.hh"
#include "src/protocol/config.hh"
#include "src/sim/random.hh"
#include "src/sim/types.hh"

namespace pcsim
{

class Hub;

/** The home-node directory engine. */
class DirController
{
  public:
    DirController(Hub &hub, Rng rng);

    /** ReqShared / ReqExcl / ReqUpgrade for a line homed here. Under
     *  a parked-request arbitration mode the arrival may be parked
     *  (or NACKed on queue overflow) instead of handled; otherwise it
     *  goes straight into handleRequestCore. */
    void handleRequest(const Message &msg);
    void handleWriteback(const Message &msg);
    void handleSharedWriteback(const Message &msg);
    void handleTransferAck(const Message &msg);
    void handleIntervNack(const Message &msg);
    void handleUndele(const Message &msg);
    /** Update-based policies: writer closes an episode / consumer
     *  leaves the update stream. */
    void handleUpdateWB(const Message &msg);
    void handleUpdateDrop(const Message &msg);

    /** Merged directory view (cache over store) for the checker. */
    DirEntry dirEntry(Addr line) const;

    DirectoryStore &store() { return _store; }
    DirectoryCache &dirCache() { return _dirCache; }
    DramModel &dram() { return _dram; }

    /** @name Policy support surface.
     *  Shared machinery CoherencePolicy implementations call back
     *  into while servicing a dispatched request. */
    /// @{
    Hub &hub() { return _hub; }

    /** Detected pattern: delegate the line to @p producer.
     *  @param txn_id the triggering write's transaction id. */
    void delegate(Addr line, NodeId producer, DirCacheEntry &e,
                  Tick ready, std::uint64_t txn_id);
    /** Forward a request to the delegate and hint the requester. */
    void forwardToDelegate(const Message &msg, DirCacheEntry &e,
                           Tick ready);

    /** Busy-line resolution: park @p msg in the per-line arbiter
     *  queue when a non-default arbitration mode is active (and the
     *  queue has room), else NACK at @p ready. */
    void nackOrQueue(const Message &msg, Tick ready);
    /** Charge a DRAM data access and combine with @p ready. */
    Tick withMemData(Tick ready);
    /// @}

    /** Episode-completion hook: if @p line has parked requests and is
     *  no longer busy, schedule the next one to re-enter the engine
     *  hubLatency ticks out. No-op under nack-retry arbitration. */
    void maybeDrain(Addr line);

  private:
    /** The pre-arbitration handleRequest body: common bookkeeping,
     *  then dispatch into the coherence policy's handleRead /
     *  handleWrite (src/protocol/policy.hh). Drained parked requests
     *  re-enter here. */
    void handleRequestCore(const Message &msg);

    /** Directory-cache access charging DRAM latency on miss.
     *  @param[out] ready earliest tick a reply may leave. */
    DirCacheEntry *access(Addr line, Tick &ready);

    /** @name Bounded local re-handle retries.
     *
     * Writebacks and undelegations cannot be NACKed (they carry the
     * only copy of the line), so a wedged directory-cache set forces a
     * local re-handle. These helpers give that loop the shared
     * jittered backoff, count it in NodeStats, and enforce the
     * maxRetries livelock guard that the remote retry paths already
     * have.
     */
    /// @{
    /** Account one re-handle attempt for @p msg and return the delay
     *  before it; panics (with the line's message trace) past
     *  maxRetries. @p what names the message type for the report. */
    Tick rehandleBackoff(const Message &msg, const char *what);
    /** Forget the attempt counter once the re-handle succeeds. */
    void rehandleDone(Addr line);
    /// @}

    Hub &_hub;
    const ProtocolConfig &_cfg;
    DirectoryStore _store;
    DirectoryCache _dirCache;
    DramModel _dram;
    Rng _rng;
    LineArbiter _arb;

    /** Outstanding re-handle attempts per line (normally empty). */
    std::unordered_map<Addr, std::uint32_t> _rehandleRetries;
};

} // namespace pcsim

#endif // PCSIM_PROTOCOL_DIR_CONTROLLER_HH
