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

/**
 * Every message type, named once, in code order:
 * X(name, code, payload, class).
 *  - payload: Header (the 32-byte minimum packet) or Data (plus one
 *    128-byte line). It sets the wire size and NI occupancy.
 *  - class: the channel class (MsgClass) that `pcsim lint --mdg`
 *    reasons about.
 * It expands into MsgType, msgTypeName, msgCarriesData, msgClassOf,
 * isMessageType and the delivery events of verify::PEvent
 * (src/verify/spec.hh), so adding a message type is one line here.
 * Codes are pinned (committed conformance documents embed them), and
 * 23..30 are left to PEvent's local events.
 */
#define PCSIM_MSG_TYPES(X)                                                \
    /* Requests (requester -> home or delegated home): read miss, write   \
       miss, write hit on a SHARED copy, eviction of a modified line. */  \
    X(ReqShared, 0, Header, Request)                                      \
    X(ReqExcl, 1, Header, Request)                                        \
    X(ReqUpgrade, 2, Header, Request)                                     \
    X(WritebackM, 3, Data, Request)                                       \
    /* Home -> requester replies: read-only data; exclusive data, or      \
       ownership without data, each with the count of invalidation acks   \
       to await; writeback accepted; busy, retry the same target; the     \
       target no longer manages the line, retry at home; the line is      \
       delegated to node X, cache the hint. */                            \
    X(RespSharedData, 4, Data, Response)                                  \
    X(RespExclData, 5, Data, Response)                                    \
    X(RespUpgradeAck, 6, Header, Response)                                \
    X(WritebackAck, 7, Header, Response)                                  \
    X(Nack, 8, Header, Response)                                          \
    X(NackNotHome, 9, Header, Response)                                   \
    X(HomeHint, 10, Header, Response)                                     \
    /* Home -> third party interventions: invalidate and ack the          \
       requester; downgrade M->S with data to the requester and a         \
       SharedWriteback to the home; yield M with data to the requester    \
       and a TransferAck to the home. */                                  \
    X(Inval, 11, Header, Intervention)                                    \
    X(IntervDowngrade, 12, Header, Intervention)                          \
    X(IntervTransfer, 13, Header, Intervention)                           \
    /* Third party responses: invalidation done (to the requester);       \
       downgraded data to the reader and back to the home; exclusive      \
       data to the requester; transfer done (to the home); the target     \
       no longer holds the line. */                                       \
    X(InvalAck, 14, Header, Response)                                     \
    X(SharedResp, 15, Data, Response)                                     \
    X(SharedWriteback, 16, Data, Response)                                \
    X(ExclResp, 17, Data, Response)                                       \
    X(TransferAck, 18, Header, Response)                                  \
    X(IntervNack, 19, Header, Response)                                   \
    /* Directory delegation (Section 2.3): directory info and data, home  \
       -> producer and back. */                                           \
    X(Delegate, 20, Data, Intervention)                                   \
    X(Undele, 21, Data, Request)                                          \
    /* Speculative updates (Section 2.4): producer -> consumer. */        \
    X(Update, 22, Data, Intervention)                                     \
    /* Write-update policies (src/protocol/policy.hh): home -> writer,    \
       leaving the home BUSY_UPD; writer -> home with the new data,       \
       closing the episode and fanning out Updates; consumer -> home,     \
       stop updating me (adaptive self-invalidation). */                  \
    X(UpdGrant, 31, Data, Response)                                       \
    X(UpdateWB, 32, Data, Request)                                        \
    X(UpdateDrop, 33, Header, Response)

/** All message types exchanged between node hubs. */
enum class MsgType : std::uint8_t
{
#define PCSIM_ENUMERATOR(name, value, ...) name = value,
    PCSIM_MSG_TYPES(PCSIM_ENUMERATOR)
#undef PCSIM_ENUMERATOR
    NumMsgTypes
};

/** True when @p code is a MsgType's code. */
constexpr bool
isMessageType(unsigned code)
{
    switch (code) {
#define PCSIM_CASE(name, value, ...) case value:
      PCSIM_MSG_TYPES(PCSIM_CASE)
#undef PCSIM_CASE
        return true;
      default:
        return false;
    }
}

/** Human-readable message type name (for traces and stats);
 *  "Reserved" for a code below NumMsgTypes that is no type. */
const char *msgTypeName(MsgType t);

/** True for message types that carry a full cache line of data. */
bool msgCarriesData(MsgType t);

/** Coarse channel class of a message type (consumption discipline,
 *  not direction): requests open transactions and may be forwarded or
 *  NACKed; interventions are home/producer-generated fan-outs bounded
 *  by the transaction they serve; responses terminate or bounce a
 *  transaction and must always be consumable. */
enum class MsgClass : std::uint8_t { Request, Intervention, Response };

const char *msgClassName(MsgClass c);
MsgClass msgClassOf(MsgType t);

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
