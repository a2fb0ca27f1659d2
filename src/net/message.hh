/**
 * @file
 * Coherence message definitions for the pcsim interconnect.
 *
 * The message vocabulary covers the base SGI-Origin-style directory
 * write-invalidate protocol plus the HPCA'07 extensions: directory
 * delegation (DELEGATE / UNDELE / not-home NACKs) and speculative
 * updates (UPDATE pushes into consumer RACs).
 */

#ifndef PCSIM_NET_MESSAGE_HH
#define PCSIM_NET_MESSAGE_HH

#include <cstdint>
#include <string>
#include <type_traits>

#include "src/mem/sharer_set.hh"
#include "src/sim/types.hh"

namespace pcsim
{

/** All message types exchanged between node hubs. */
enum class MsgType : std::uint8_t
{
    // Requests (requester -> home or delegated home).
    ReqShared,       ///< read miss: request a read-only copy
    ReqExcl,         ///< write miss: request an exclusive copy
    ReqUpgrade,      ///< write hit on SHARED copy: request ownership
    WritebackM,      ///< eviction of a modified line (carries data)

    // Home -> requester replies.
    RespSharedData,  ///< read-only data reply
    RespExclData,    ///< exclusive data reply (+ count of invals to wait)
    RespUpgradeAck,  ///< ownership granted without data (+ inval count)
    WritebackAck,    ///< writeback accepted
    Nack,            ///< busy; retry the same target later
    NackNotHome,     ///< target no longer manages the line; retry at home
    HomeHint,        ///< "line is delegated to node X"; cache the hint

    // Home -> third party interventions.
    Inval,           ///< invalidate your copy; ack the requester
    IntervDowngrade, ///< downgrade M->S; data to requester, SHWB to home
    IntervTransfer,  ///< yield M to requester; data to req, ack to home

    // Third party responses.
    InvalAck,        ///< invalidation done (sent to requester)
    SharedResp,      ///< downgraded data to the reading requester
    SharedWriteback, ///< downgraded data back to the home (SHWB)
    ExclResp,        ///< transferred exclusive data to the requester
    TransferAck,     ///< ownership transfer complete (sent to home)
    IntervNack,      ///< intervention target no longer holds the line

    // Directory delegation (Section 2.3).
    Delegate,        ///< home -> producer: directory info + data
    Undele,          ///< producer -> home: directory info + data back

    // Speculative updates (Section 2.4).
    Update,          ///< producer -> consumer: pushed line contents

    // Write-update policies (src/protocol/policy.hh). Numbered after
    // the verify layer's synthetic local-event block (PEvent values
    // 23..30) so MsgType and PEvent stay value-aliased for every
    // message type without renumbering any existing event code --
    // committed conformance documents embed the numeric codes.
    UpdGrant = 31,   ///< home -> writer: write permission + data,
                     ///< home is BUSY_UPD until the UpdateWB returns
    UpdateWB,        ///< writer -> home: the new data, closes the
                     ///< write episode and fans out Updates
    UpdateDrop,      ///< consumer -> home: stop updating me
                     ///< (adaptive self-invalidation)

    NumMsgTypes
};

/** Human-readable message type name (for traces and stats). */
const char *msgTypeName(MsgType t);

/** True for message types that carry a full cache line of data. */
bool msgCarriesData(MsgType t);

/**
 * A network message. Field usage varies by type; unused fields keep
 * their defaults. Data payloads are abstracted to a line Version (see
 * DESIGN.md): the version is the write-epoch stamp the coherence
 * checker validates.
 *
 * The layout is one cache line and trivially copyable: every send
 * copies a message into pooled storage and every delivery reads it
 * back, so the widest fields come first and the sharing vector -- the
 * only variable-size payload, carried by Delegate and Undele alone --
 * lives in pooled side storage (Network::acquireSharers()).
 *
 * Side-set ownership: the set a Delegate or Undele points at belongs
 * to the message until the handler that consumes the message takes
 * it (copies it out and releases it, or forwards it in the message it
 * sends on). A handler that keeps a copy of the message past its
 * return -- a local re-handle -- keeps the set alive until that copy
 * is handled. The pooled message itself never owns the set, so
 * recycling a delivered message never recycles a set still in use.
 */
struct Message
{
    Addr addr = invalidAddr;    ///< line-aligned address

    /**
     * Transaction id: stamped on requests by the requester's MSHR and
     * echoed on every reply (data, acks, NACKs) so responses that
     * outlive their transaction -- e.g. a home reply racing a
     * speculative update that already satisfied the read -- are
     * recognized as stale and dropped.
     */
    std::uint64_t txnId = 0;

    /** Sharing vector (Delegate/Undele only; null = empty), in side
     *  storage owned as described above. */
    SharerSet *sharers = nullptr;

    Version version = 0;        ///< line write-epoch (data abstraction)

    /**
     * Retry attempt count, stamped on requests from the requester's
     * MSHR on every (re)send: 0 on the first issue, incremented per
     * NACK retry. The aged-priority arbiter (src/protocol/arbiter.hh)
     * uses it to service the longest-suffering requester first when a
     * parked-request queue overflows back into NACK mode.
     */
    std::uint32_t retries = 0;

    NodeId src = invalidNode;   ///< sending hub
    NodeId dst = invalidNode;   ///< receiving hub
    NodeId requester = invalidNode; ///< original requester (3-hop flows)
    NodeId hintHome = invalidNode; ///< delegated home (HomeHint)
    NodeId owner = invalidNode; ///< owner field (Delegate/Undele)
    /** Undele: a pending exclusive request the home should service. */
    NodeId pendingReq = invalidNode;
    std::uint16_t ackCount = 0; ///< invalidation acks to expect

    MsgType type = MsgType::Nack;
    MsgType pendingType = MsgType::Nack; ///< Undele: pendingReq's type
    bool dirty = false;         ///< data differs from home memory

    /** Wire sizes of the two packet classes: the NUMALink-4 minimum
     *  packet, and one carrying a full 128-byte coherence line. */
    static constexpr std::uint32_t headerPacketBytes = 32;
    static constexpr std::uint32_t dataPacketBytes = 32 + 128;

    /** Wire size in bytes: 32 B header; +128 B if data-carrying. */
    std::uint32_t sizeBytes() const;

    std::string toString() const;
};

static_assert(std::is_trivially_copyable_v<Message>,
              "messages are copied wholesale into pooled storage");
static_assert(sizeof(Message) <= 64, "a message fits one cache line");

/** Abstract sink for delivered messages (implemented by node hubs). */
class MessageHandler
{
  public:
    virtual ~MessageHandler() = default;
    virtual void handleMessage(const Message &msg) = 0;
};

} // namespace pcsim

#endif // PCSIM_NET_MESSAGE_HH
