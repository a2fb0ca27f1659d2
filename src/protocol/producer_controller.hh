/**
 * @file
 * Delegated-home engine (Sections 2.3 and 2.4).
 *
 * Runs at the producer node for every line delegated to it:
 *  - accepts DELEGATE messages, pins the surrogate-memory RAC entry
 *    and services the pending local write,
 *  - acts as the home for remote read requests (2-hop misses),
 *  - undelegates on producer-table conflict (reason 1), pinned-RAC
 *    pressure (reason 2) and remote exclusive requests (reason 3),
 *  - implements the delayed intervention (Section 2.4.1): a fixed,
 *    configurable interval after each write epoch completes, the
 *    producer's processor copy is downgraded, the data lands in the
 *    local RAC, and speculative UPDATEs are pushed to the previous
 *    sharing vector (Section 2.4.2) -- the nodes most likely to
 *    consume the new data.
 */

#ifndef PCSIM_PROTOCOL_PRODUCER_CONTROLLER_HH
#define PCSIM_PROTOCOL_PRODUCER_CONTROLLER_HH

#include <cstdint>

#include "src/core/delegate_cache.hh"
#include "src/net/message.hh"
#include "src/protocol/arbiter.hh"
#include "src/protocol/config.hh"
#include "src/sim/flat_map.hh"
#include "src/sim/types.hh"

namespace pcsim
{

class Hub;

/** The producer-side delegated-home engine. */
class ProducerController
{
  public:
    ProducerController(Hub &hub);

    /** Is @p line currently delegated to this node? */
    bool isDelegated(Addr line);
    const ProducerEntry *entryFor(Addr line) const;

    /** DELEGATE from the home node. */
    void handleDelegate(const Message &msg);

    /** Request (local or remote) for a line in the producer table.
     *  Under a parked-request arbitration mode a remote arrival may
     *  park (or NACK on queue overflow) instead of being handled. */
    void handleRequest(const Message &msg);

    /** Episode-completion hook: if @p line has parked remote requests
     *  and can service one now, schedule it to re-enter the engine
     *  hubLatency ticks out. No-op under nack-retry arbitration. */
    void maybeDrain(Addr line);

    /** The local CPU's write transaction on a delegated line finished
     *  (all acks collected): start the delayed-intervention timer. */
    void onLocalWriteComplete(Addr line);

    /** The local L2 evicted a delegated line: absorb the data into
     *  the pinned RAC entry and close the write epoch. */
    void onLocalFlush(Addr line, Version version);

    /** RAC set pressure forces a pinned entry out (reason 2). */
    void undelegateForRacPressure(Addr line);

  private:
    /** The pre-arbitration handleRequest body; drained parked
     *  requests re-enter here. */
    void handleRequestCore(const Message &msg);
    void serveLocalWrite(const Message &msg, ProducerEntry &e);
    void serveRemoteRead(const Message &msg, ProducerEntry &e);
    void fireDelayedIntervention(Addr line, std::uint64_t token);
    /** Downgrade/absorb the epoch's data and push updates. */
    void completeEpoch(Addr line, ProducerEntry &e, Version version);
    /** Hand @p line back to its home (Section 2.3.3). Each caller
     *  counts its reason in NodeStats: a producer-table conflict, a
     *  displaced pinned RAC entry, another node's exclusive request
     *  or a delegation that could not be accepted at all. */
    void undelegate(Addr line, ProducerEntry &e,
                    NodeId pending_req = invalidNode,
                    MsgType pending_type = MsgType::ReqExcl,
                    std::uint64_t pending_txn = 0);

    Hub &_hub;
    const ProtocolConfig &_cfg;
    LineArbiter _arb;
    /** Timer-validity tokens (re-delegation invalidates old timers). */
    FlatMap<Addr, std::uint64_t> _timerTokens;
    std::uint64_t _nextToken = 1;
    /** Last downgrade tick per line, for the extra-write-miss stat. */
    FlatMap<Addr, Tick> _lastDowngrade;
};

} // namespace pcsim

#endif // PCSIM_PROTOCOL_PRODUCER_CONTROLLER_HH
